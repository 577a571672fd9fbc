package cache

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/sim"
)

// quiesced checks what every fill, installed or retracted, must leave behind:
// a meta table Fsck passes (every lock word free, the header's free counter
// equal to the free entries), no entry lock held by the control plane, and
// no entry noted by a journal attempt that neither landed nor was undone.
func quiesced(t *testing.T, m *model.Machine, l Layout, c *Ctl) {
	t.Helper()
	for _, pr := range Fsck(m.HostMem, l) {
		t.Error(pr)
	}
	if i := c.HeldEntry(); i != -1 {
		t.Errorf("the ctl still holds entry %d", i)
	}
	if i := c.PendingLog(); i != -1 {
		t.Errorf("entry %d still carries an unfinished journal attempt", i)
	}
}

// TestFillRetractsOnAWriteOfItsInode: a read miss of page 3 of inode 5 reads
// the backend for 10 µs, and a write or truncate is noted 5 µs into that
// read. The fill is retracted (idx -1, the page absent from the cache)
// exactly when the note names inode 5 and lands during the read: a note for
// another inode, or one that landed before the read began, retracts nothing.
func TestFillRetractsOnAWriteOfItsInode(t *testing.T) {
	const ino, lpn = 5, 3
	cases := []struct {
		name         string
		noteIno      uint64
		before       bool // the note lands before the read begins
		wantRetracts bool
	}{
		{"same inode", ino, false, true},
		{"other inode", ino + 1, false, false},
		{"before the read", ino, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, l, h, c, _ := newTestCache(t, 64, 8, CtlConfig{})
			if tc.before {
				c.NoteWrite(tc.noteIno)
			}
			idx, found := -2, false
			m.Eng.Go("fill", func(p *sim.Proc) {
				idx, found = c.ReadFill(p, ino, lpn, page(0x5A), func() bool {
					p.Sleep(10 * time.Microsecond)
					return true
				})
			})
			m.Eng.Go("write", func(p *sim.Proc) {
				p.Sleep(5 * time.Microsecond)
				if !tc.before {
					c.NoteWrite(tc.noteIno)
				}
			})
			m.Eng.Run()
			var got []byte
			var cached bool
			m.Eng.Go("host", func(p *sim.Proc) { got, cached = lookupPage(p, h, ino, lpn) })
			m.Eng.Run()
			m.Eng.Shutdown()
			if !found {
				t.Fatal("ReadFill reported nothing read")
			}
			if tc.wantRetracts {
				if idx != -1 || cached {
					t.Errorf("fill = %d, cached %v: want retracted (-1, absent)", idx, cached)
				}
			} else if idx < 0 || !cached || !bytes.Equal(got, page(0x5A)) {
				t.Errorf("fill = %d, cached %v: want the page installed", idx, cached)
			}
			quiesced(t, m, l, c)
		})
	}
}

// TestFillRetractsOnAFlushOfItsPage: a full-page buffered write of the page a
// fill is reading, then its flush and the eviction of the now clean page, all
// land inside the fill's backend read. The write never reaches dispatch, so
// only the flush can tell the fill its bytes are stale; without it the fill
// finds the page absent and installs the pre-write bytes as clean.
func TestFillRetractsOnAFlushOfItsPage(t *testing.T) {
	const ino, lpn = 5, 3
	m, l, h, c, b := newTestCache(t, 64, 8, CtlConfig{})
	idx, buf := -2, make([]byte, 4096)
	m.Eng.Go("fill", func(p *sim.Proc) {
		idx, _ = c.ReadFill(p, ino, lpn, buf, func() bool {
			copy(buf, page(0x11))
			p.Sleep(200 * time.Microsecond)
			return true
		})
	})
	m.Eng.Go("write", func(p *sim.Proc) {
		if !h.WritePage(p, ino, lpn, page(0x22)) {
			t.Error("WritePage found no room")
		}
		if _, err := c.FlushIno(p, ino); err != nil {
			t.Error(err)
		}
		if c.ReclaimBucket(p, ino, lpn, 1) != 1 {
			t.Error("ReclaimBucket freed nothing")
		}
	})
	m.Eng.Run()
	var got []byte
	var cached bool
	m.Eng.Go("host", func(p *sim.Proc) { got, cached = lookupPage(p, h, ino, lpn) })
	m.Eng.Run()
	m.Eng.Shutdown()
	if !bytes.Equal(b.pages[[2]uint64{ino, lpn}], page(0x22)) {
		t.Fatal("the flush did not reach the backend")
	}
	if cached && !bytes.Equal(got, page(0x22)) {
		t.Errorf("fill = %d: the cache serves %#x, the backend holds 0x22", idx, got[0])
	}
	quiesced(t, m, l, c)
}

// rangeBackend gives memBackend a range read, which puts the prefetcher on
// its one-read-per-run path.
type rangeBackend struct{ *memBackend }

func (b rangeBackend) ReadPageRange(p *sim.Proc, ino, lpn uint64, n, pageSize int) [][]byte {
	var out [][]byte
	for k := 0; k < n; k++ {
		d, ok := b.ReadPage(p, ino, lpn+uint64(k), pageSize)
		if !ok {
			break
		}
		out = append(out, d)
	}
	return out
}

// TestPrefetchFaultReleasesWindow: while the fill site fails every backend
// read, a detected stream's prefetch windows fetch nothing, and each releases
// its in-flight keys, so once the fault clears the same pages
// prefetch again. Both the range and the per-page path.
func TestPrefetchFaultReleasesWindow(t *testing.T) {
	for _, ranged := range []bool{true, false} {
		name := "per-page"
		if ranged {
			name = "range"
		}
		t.Run(name, func(t *testing.T) {
			m, l, h, c, b := newTestCache(t, 256, 16, CtlConfig{PrefetchEnabled: true, PrefetchDepth: 8})
			if ranged {
				c.SetBackend(rangeBackend{b})
			}
			for lpn := uint64(0); lpn < 64; lpn++ {
				b.pages[[2]uint64{4, lpn}] = page(byte(lpn))
			}
			in := fault.New(m.Eng, []fault.Rule{{Site: fault.SiteCacheFill, Kind: fault.KindBackendReadErr}})
			c.SetFaults(in)
			m.Eng.Go("dpu", func(p *sim.Proc) {
				for lpn := uint64(0); lpn < 3; lpn++ {
					c.NotifyRead(p, 4, lpn)
				}
			})
			m.Eng.Run()
			if c.FillErrs.Total() == 0 || c.Prefetches.Total() != 0 || b.reads != 0 {
				t.Fatalf("under the fault: fill errors %d, prefetches %d, backend reads %d; want >0, 0, 0",
					c.FillErrs.Total(), c.Prefetches.Total(), b.reads)
			}
			if len(c.inflight) != 0 {
				t.Fatalf("%d prefetch keys still in flight after the failed window", len(c.inflight))
			}
			quiesced(t, m, l, c)

			in.Disarm()
			m.Eng.Go("dpu", func(p *sim.Proc) { c.NotifyRead(p, 4, 3) })
			m.Eng.Run()
			var got []byte
			var cached bool
			m.Eng.Go("host", func(p *sim.Proc) { got, cached = lookupPage(p, h, 4, 4) })
			m.Eng.Run()
			m.Eng.Shutdown()
			if !cached || !bytes.Equal(got, page(4)) {
				t.Errorf("page 4, in the failed window, was not prefetched once the fault cleared")
			}
			if len(c.inflight) != 0 {
				t.Errorf("%d prefetch keys still in flight", len(c.inflight))
			}
			quiesced(t, m, l, c)
		})
	}
}
