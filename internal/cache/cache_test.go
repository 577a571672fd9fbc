package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"dpc/internal/bufpool"
	"dpc/internal/fault"
	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/wal"
)

// memBackend is an in-DPU-memory page store for tests.
type memBackend struct {
	pages  map[[2]uint64][]byte
	writes int
	reads  int
}

func newMemBackend() *memBackend { return &memBackend{pages: map[[2]uint64][]byte{}} }

// DirtyCount scans the meta area and reports dirty pages, journaled or not
// (StatusDirty or StatusLogged).
func (h *Host) DirtyCount() int {
	n := 0
	meta := h.meta(0, h.L.Total)
	for i := 0; i < h.L.Total; i++ {
		if 1<<binary.LittleEndian.Uint32(meta[i*EntrySize+offStatus:])&dirtyMask != 0 {
			n++
		}
	}
	return n
}

// ReadPageRange reads up to n consecutive stored pages from lpn, stopping at
// the first absent one.
func (b *memBackend) ReadPageRange(p *sim.Proc, ino, lpn uint64, n, pageSize int) [][]byte {
	var out [][]byte
	for k := 0; k < n; k++ {
		b.reads++
		d, ok := b.pages[[2]uint64{ino, lpn + uint64(k)}]
		if !ok {
			break
		}
		out = append(out, append([]byte(nil), d...))
	}
	return out
}

func (b *memBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	b.writes++
	b.pages[[2]uint64{ino, lpn}] = append([]byte(nil), data...)
	return nil
}

func newTestCache(t *testing.T, pages, buckets int, ctlCfg CtlConfig) (*model.Machine, Layout, *Host, *Ctl, *memBackend) {
	t.Helper()
	m := model.NewMachine(model.Default())
	base := m.AllocHost(NewLayout(0, 4096, pages, buckets).Size(), 4096)
	l := NewLayout(base, 4096, pages, buckets)
	InitHeader(m.HostMem, l, ModeWrite)
	h := NewHost(m, l)
	b := newMemBackend()
	c := NewCtl(m, l, b, ctlCfg)
	return m, l, h, c, b
}

func page(seed byte) []byte { return bytes.Repeat([]byte{seed}, 4096) }

// lookupPage reads a whole cached page through LookupInto.
func lookupPage(p *sim.Proc, h *Host, ino, lpn uint64) ([]byte, bool) {
	data := make([]byte, h.L.PageSize)
	return data, h.LookupInto(p, ino, lpn, 0, data)
}

func TestLayoutGeometry(t *testing.T) {
	l := NewLayout(0x1000, 4096, 64, 8)
	if l.Size() != HeaderSize+64*EntrySize+64*4096 {
		t.Fatalf("Size = %d", l.Size())
	}
	if l.EntriesPerBucket() != 8 {
		t.Fatalf("EntriesPerBucket = %d", l.EntriesPerBucket())
	}
	if l.EntryAddr(0) != 0x1000+HeaderSize {
		t.Fatalf("EntryAddr(0) = %#x", uint64(l.EntryAddr(0)))
	}
	if l.PageAddr(0) != l.DataBase() {
		t.Fatal("PageAddr(0) != DataBase")
	}
	// Entry i and page i correspond.
	if l.PageAddr(5)-l.PageAddr(4) != 4096 {
		t.Fatal("page stride wrong")
	}
}

func TestInitHeaderFields(t *testing.T) {
	m := model.NewMachine(model.Default())
	l := NewLayout(m.AllocHost(NewLayout(0, 4096, 16, 4).Size(), 4096), 4096, 16, 4)
	InitHeader(m.HostMem, l, ModeRead)
	if m.HostMem.Uint32(l.Base) != 4096 {
		t.Fatal("pagesize field wrong")
	}
	if m.HostMem.Uint32(l.Base+4) != ModeRead {
		t.Fatal("mode field wrong")
	}
	if m.HostMem.Uint32(l.Base+8) != 16 || HeaderFree(m.HostMem, l) != 16 {
		t.Fatal("total/free fields wrong")
	}
	// Bucket chains are circular within each bucket.
	for b := 0; b < 4; b++ {
		lo, hi := l.BucketEntries(b)
		e := ReadEntry(m.HostMem, l, hi-1)
		if e.Next != uint32(lo) {
			t.Fatalf("bucket %d tail next = %d, want %d", b, e.Next, lo)
		}
	}
}

func TestEntryEncodeDecodeRoundTrip(t *testing.T) {
	e := Entry{Lock: LockRead, Status: StatusDirty, Next: 42, LPN: 0x1122334455, Ino: 0x99887766}
	var b [EntrySize]byte
	encodeEntry(b[:], e)
	if got := DecodeEntry(b[:]); got != e {
		t.Fatalf("round trip = %+v, want %+v", got, e)
	}
}

func TestHostWriteThenLookup(t *testing.T) {
	m, _, h, _, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	m.Eng.Go("host", func(p *sim.Proc) {
		if !h.WritePage(p, 7, 3, page(0xAB)) {
			t.Error("WritePage failed")
			return
		}
		got, ok := lookupPage(p, h, 7, 3)
		if !ok || !bytes.Equal(got, page(0xAB)) {
			t.Error("Lookup after write failed")
		}
		if _, ok := lookupPage(p, h, 7, 4); ok {
			t.Error("Lookup of absent page hit")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if h.Hits.Total() != 1 || h.Misses.Total() != 1 {
		t.Fatalf("hits=%d misses=%d", h.Hits.Total(), h.Misses.Total())
	}
}

func TestHostWriteUpdatesInPlace(t *testing.T) {
	m, l, h, _, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 1, 1, page(1))
		free1 := HeaderFree(m.HostMem, l)
		h.WritePage(p, 1, 1, page(2))
		if HeaderFree(m.HostMem, l) != free1 {
			t.Error("in-place update consumed a page")
		}
		got, _ := lookupPage(p, h, 1, 1)
		if !bytes.Equal(got, page(2)) {
			t.Error("update not visible")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestHostWriteBucketFull(t *testing.T) {
	// 16 pages over 2 buckets = 8 entries per bucket; writing 9+ pages of
	// the same bucket must fail on the 9th.
	m, l, h, _, _ := newTestCache(t, 16, 2, CtlConfig{FlushEnabled: false})
	m.Eng.Go("host", func(p *sim.Proc) {
		bucketOf := func(lpn uint64) int { return l.BucketOf(1, lpn) }
		target := bucketOf(0)
		written := 0
		var failedLPN uint64
		for lpn := uint64(0); written < 9; lpn++ {
			if bucketOf(lpn) != target {
				continue
			}
			if !h.WritePage(p, 1, lpn, page(byte(lpn))) {
				failedLPN = lpn
				break
			}
			written++
		}
		if written != 8 {
			t.Errorf("wrote %d pages before bucket full (want 8), failed at %d", written, failedLPN)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if h.WriteFull.Total() != 1 {
		t.Fatalf("WriteFull = %d", h.WriteFull.Total())
	}
}

func TestFlushWritesBackAndMarksClean(t *testing.T) {
	m, _, h, c, b := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	m.Eng.Go("host", func(p *sim.Proc) {
		for lpn := uint64(0); lpn < 10; lpn++ {
			h.WritePage(p, 5, lpn, page(byte(lpn+1)))
		}
	})
	m.Eng.Run()
	if h.DirtyCount() != 10 {
		t.Fatalf("dirty = %d", h.DirtyCount())
	}
	m.Eng.Go("dpu", func(p *sim.Proc) {
		if n, _ := c.FlushPass(p, 100); n != 10 {
			t.Errorf("FlushPass = %d", n)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if h.DirtyCount() != 0 {
		t.Fatalf("dirty after flush = %d", h.DirtyCount())
	}
	if b.writes != 10 {
		t.Fatalf("backend writes = %d", b.writes)
	}
	for lpn := uint64(0); lpn < 10; lpn++ {
		if !bytes.Equal(b.pages[[2]uint64{5, lpn}], page(byte(lpn+1))) {
			t.Fatalf("backend page %d corrupted", lpn)
		}
	}
}

// HasDirty answers from the maybe-dirty inode set: it must agree with a full
// meta scan across every transition — never written, dirtied by each of the
// three host paths that store StatusDirty, cleaned by the DPU flusher (which
// does not tell the host), invalidated, and dirtied again — and charge the
// same virtual time whether or not it scans.
func TestHasDirtyTracksFlushAndRedirty(t *testing.T) {
	m, _, h, c, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	scan := func(ino uint64) bool {
		for i := 0; i < h.L.Total; i++ {
			if e := ReadEntry(m.HostMem, h.L, i); e.Status == StatusDirty && e.Ino == ino {
				return true
			}
		}
		return false
	}
	var cost []time.Duration
	check := func(p *sim.Proc, when string, ino uint64, want bool) {
		t0 := p.Now()
		got := h.HasDirty(p, ino)
		cost = append(cost, p.Now().Sub(t0))
		if got != want || got != scan(ino) {
			t.Errorf("%s: HasDirty(%d) = %v, want %v (scan %v)", when, ino, got, want, scan(ino))
		}
	}
	m.Eng.Go("host", func(p *sim.Proc) {
		check(p, "untouched", 5, false)
		h.WritePage(p, 5, 0, page(1)) // insert path
		check(p, "after insert", 5, true)
		check(p, "other inode", 6, false)
		c.FlushPass(p, 100)
		check(p, "after flush", 5, false)
		check(p, "after flush, set dropped", 5, false)
		h.WritePage(p, 5, 0, page(2)) // in-place path
		check(p, "after rewrite", 5, true)
		c.FlushPass(p, 100)
		h.MergeIfPresent(p, 5, 0, 16, []byte{9}) // merge path
		check(p, "after merge", 5, true)
		h.InvalidateIno(p, 5)
		check(p, "after invalidate", 5, false)
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if len(cost) != 8 {
		t.Fatalf("script ran %d of 8 checks", len(cost))
	}
	for i, d := range cost {
		if d != cost[0] || d == 0 {
			t.Fatalf("check %d cost %v of virtual time, first cost %v: scan and no-scan must charge alike", i, d, cost[0])
		}
	}
}

func TestFlushDaemonRunsPeriodically(t *testing.T) {
	m, _, h, _, b := newTestCache(t, 64, 8, DefaultCtlConfig())
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 9, 0, page(0x77))
	})
	// Run past one flush interval.
	m.Eng.RunUntil(sim.Time(3 * m.Cfg.Costs.FlushInterval))
	m.Eng.Shutdown()
	if b.writes == 0 {
		t.Fatal("flush daemon never flushed")
	}
	if h.DirtyCount() != 0 {
		t.Fatal("dirty pages remain after daemon pass")
	}
}

func TestFillPageAndHostHit(t *testing.T) {
	m, _, h, c, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	m.Eng.Go("dpu", func(p *sim.Proc) {
		if idx := c.FillPage(p, 3, 14, page(0x5A)); idx < 0 {
			t.Error("FillPage failed")
		}
	})
	m.Eng.Run()
	m.Eng.Go("host", func(p *sim.Proc) {
		got, ok := lookupPage(p, h, 3, 14)
		if !ok || !bytes.Equal(got, page(0x5A)) {
			t.Error("host lookup of DPU-filled page failed")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestFillEvictsCleanWhenFull(t *testing.T) {
	m, l, _, c, _ := newTestCache(t, 8, 1, CtlConfig{FlushEnabled: false})
	m.Eng.Go("dpu", func(p *sim.Proc) {
		// Fill all 8 entries clean, then one more: eviction must occur.
		for lpn := uint64(0); lpn < 9; lpn++ {
			if idx := c.FillPage(p, 1, lpn, page(byte(lpn))); idx < 0 {
				t.Errorf("FillPage %d failed", lpn)
				return
			}
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.Evictions.Total() != 1 {
		t.Fatalf("Evictions = %d", c.Evictions.Total())
	}
	_ = l
}

func TestReclaimBucketFreesDirty(t *testing.T) {
	m, _, h, c, b := newTestCache(t, 8, 1, CtlConfig{FlushEnabled: false})
	m.Eng.Go("host", func(p *sim.Proc) {
		for lpn := uint64(0); lpn < 8; lpn++ {
			if !h.WritePage(p, 2, lpn, page(byte(lpn))) {
				t.Errorf("setup write %d failed", lpn)
			}
		}
		// Bucket is now full of dirty pages; a 9th write fails.
		if h.WritePage(p, 2, 100, page(0xFF)) {
			t.Error("write should have failed with full bucket")
		}
	})
	m.Eng.Run()
	m.Eng.Go("dpu", func(p *sim.Proc) {
		if freed := c.ReclaimBucket(p, 2, 100, 2); freed < 1 {
			t.Errorf("ReclaimBucket freed %d", freed)
		}
	})
	m.Eng.Run()
	m.Eng.Go("host", func(p *sim.Proc) {
		if !h.WritePage(p, 2, 100, page(0xFF)) {
			t.Error("write after reclaim still fails")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if b.writes == 0 {
		t.Fatal("reclaim did not flush dirty pages")
	}
}

func TestPrefetchOnSequentialStream(t *testing.T) {
	m, _, h, c, b := newTestCache(t, 256, 16, CtlConfig{FlushEnabled: false, PrefetchEnabled: true, PrefetchDepth: 8})
	// Backend holds a 64-page file.
	for lpn := uint64(0); lpn < 64; lpn++ {
		b.pages[[2]uint64{4, lpn}] = page(byte(lpn))
	}
	m.Eng.Go("dpu", func(p *sim.Proc) {
		// Simulate the miss path: three sequential reads trigger prefetch.
		for lpn := uint64(0); lpn < 3; lpn++ {
			c.NotifyRead(p, 4, lpn)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.Prefetches.Total() == 0 {
		t.Fatal("no prefetches issued")
	}
	// Prefetched pages must now be host-cache hits.
	m2 := m
	m2.Eng.Go("host", func(p *sim.Proc) {
		got, ok := lookupPage(p, h, 4, 3)
		if !ok || !bytes.Equal(got, page(3)) {
			t.Error("prefetched page not in host cache")
		}
	})
	m2.Eng.Run()
	m2.Eng.Shutdown()
}

// writeOnlyBackend takes write-backs and has no range read.
type writeOnlyBackend struct{}

func (writeOnlyBackend) WritePage(*sim.Proc, uint64, uint64, int, []byte) error { return nil }

// TestPrefetchNeedsARangeRead: the prefetcher fetches only through
// ReadPageRange, so a control plane refuses a write-only backend with
// prefetch on and takes it with prefetch off.
func TestPrefetchNeedsARangeRead(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		m, _, _, c, _ := newTestCache(t, 64, 8, CtlConfig{PrefetchEnabled: prefetch})
		func() {
			defer func() {
				if panicked := recover() != nil; panicked != prefetch {
					t.Errorf("prefetch %v: SetBackend of a write-only backend panicked: %v", prefetch, panicked)
				}
			}()
			c.SetBackend(writeOnlyBackend{})
		}()
		m.Eng.Shutdown()
	}
}

func TestNoPrefetchOnRandomReads(t *testing.T) {
	m, _, _, c, b := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false, PrefetchEnabled: true, PrefetchDepth: 8})
	for lpn := uint64(0); lpn < 64; lpn++ {
		b.pages[[2]uint64{4, lpn}] = page(byte(lpn))
	}
	m.Eng.Go("dpu", func(p *sim.Proc) {
		for _, lpn := range []uint64{5, 60, 2, 33, 18, 9} {
			c.NotifyRead(p, 4, lpn)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.Prefetches.Total() != 0 {
		t.Fatalf("prefetched %d pages on a random stream", c.Prefetches.Total())
	}
}

// Consistency under concurrency: host writers and the DPU flusher race on
// the same pages; no update may be lost and the backend must converge to
// the last written values after a final flush.
func TestFlushWriterConsistency(t *testing.T) {
	m, _, h, c, b := newTestCache(t, 128, 8, DefaultCtlConfig())
	const pages = 16
	const rounds = 20
	last := map[uint64]byte{}
	for w := 0; w < 4; w++ {
		w := w
		m.Eng.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				lpn := uint64((w*7 + r) % pages)
				seed := byte(w*rounds + r + 1)
				if h.WritePage(p, 1, lpn, page(seed)) {
					last[lpn] = seed
				}
				p.Sleep(time.Duration(50+w*13) * time.Microsecond)
			}
		})
	}
	m.Eng.RunUntil(sim.Time(50 * time.Millisecond))
	// Final flush to drain (stop the daemon so Run terminates).
	c.Stop()
	m.Eng.Go("final-flush", func(p *sim.Proc) { c.FlushPass(p, 1000) })
	m.Eng.Run()
	m.Eng.Shutdown()
	if h.DirtyCount() != 0 {
		t.Fatalf("dirty pages remain: %d", h.DirtyCount())
	}
	for lpn, seed := range last {
		got := b.pages[[2]uint64{1, lpn}]
		if !bytes.Equal(got, page(seed)) {
			t.Fatalf("page %d: backend has %d, want %d", lpn, got[0], seed)
		}
	}
}

func TestSecondChanceSparesHotEntry(t *testing.T) {
	// One bucket of 8 entries, all clean. Entry for (1,0) is "hot" (host
	// hit sets its reference bit); under second-chance the first eviction
	// must pick a cold entry instead.
	m, _, h, c, _ := newTestCache(t, 8, 1, CtlConfig{FlushEnabled: false, Policy: PolicySecondChance})
	m.Eng.Go("fill", func(p *sim.Proc) {
		for lpn := uint64(0); lpn < 8; lpn++ {
			if c.FillPage(p, 1, lpn, page(byte(lpn))) < 0 {
				t.Errorf("fill %d failed", lpn)
			}
		}
		// Touch (1,0): sets its ref bit.
		if _, ok := lookupPage(p, h, 1, 0); !ok {
			t.Error("hot lookup missed")
		}
		// Insert one more page: eviction must spare (1,0).
		if c.FillPage(p, 1, 100, page(0xFF)) < 0 {
			t.Error("fill after eviction failed")
		}
		if _, ok := lookupPage(p, h, 1, 0); !ok {
			t.Error("hot entry was evicted despite its reference bit")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.Evictions.Total() != 1 {
		t.Fatalf("Evictions = %d", c.Evictions.Total())
	}
}

func TestFIFOIgnoresReferenceBit(t *testing.T) {
	m, _, h, c, _ := newTestCache(t, 8, 1, CtlConfig{FlushEnabled: false, Policy: PolicyFIFO})
	m.Eng.Go("fill", func(p *sim.Proc) {
		for lpn := uint64(0); lpn < 8; lpn++ {
			c.FillPage(p, 1, lpn, page(byte(lpn)))
		}
		lookupPage(p, h, 1, 0) // sets ref bit, but FIFO does not care
		c.FillPage(p, 1, 100, page(0xFF))
		// The clock hand started at 0: (1,0) is evicted even though hot.
		if _, ok := lookupPage(p, h, 1, 0); ok {
			t.Error("FIFO unexpectedly spared the referenced entry")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestEntryRefRoundTrip(t *testing.T) {
	e := Entry{Lock: LockNone, Status: StatusClean, Next: 3, LPN: 9, Ino: 4, Ref: 1}
	var b [EntrySize]byte
	encodeEntry(b[:], e)
	if got := DecodeEntry(b[:]); got != e {
		t.Fatalf("round trip = %+v, want %+v", got, e)
	}
}

// TestDegradedEntryAndExit drives the ctl through the full degraded-mode
// cycle: persistent injected flush failures trip the threshold and raise
// the shared-header flag the host routes on; the first successful flush
// after injection stops clears it.
func TestDegradedEntryAndExit(t *testing.T) {
	m, _, h, c, b := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	// Every flush fails until the rule budget (12) runs out.
	in := fault.New(m.Eng, []fault.Rule{
		{Site: fault.SiteCacheFlush, Kind: fault.KindBackendWriteErr, Count: 12},
	})
	c.SetFaults(in)
	m.Eng.Go("host", func(p *sim.Proc) {
		for lpn := uint64(0); lpn < 6; lpn++ {
			h.WritePage(p, 5, lpn, page(byte(lpn+1)))
		}
	})
	m.Eng.Run()
	m.Eng.Go("dpu", func(p *sim.Proc) {
		n, err := c.FlushPass(p, 100)
		if n != 0 || err == nil {
			t.Errorf("FlushPass under injection = (%d, %v), want (0, error)", n, err)
		}
	})
	m.Eng.Run()
	// 6 consecutive failures >= threshold (4): degraded, flag visible to
	// both sides, pages still dirty.
	if !c.Degraded() || !h.Degraded() {
		t.Fatalf("degraded: ctl=%v host=%v, want true/true", c.Degraded(), h.Degraded())
	}
	if c.DegradedEntries.Total() != 1 {
		t.Fatalf("entries = %d", c.DegradedEntries.Total())
	}
	if h.DirtyCount() != 6 || b.writes != 0 {
		t.Fatalf("dirty=%d backendWrites=%d, want 6/0", h.DirtyCount(), b.writes)
	}
	// Injection stops; the next pass flushes everything and recovers.
	in.Disarm()
	m.Eng.Go("dpu", func(p *sim.Proc) {
		if n, err := c.FlushPass(p, 100); n != 6 || err != nil {
			t.Errorf("recovery FlushPass = (%d, %v), want (6, nil)", n, err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.Degraded() || h.Degraded() {
		t.Fatal("still degraded after successful flush")
	}
	if c.DegradedExits.Total() != 1 || h.DirtyCount() != 0 || b.writes != 6 {
		t.Fatalf("exits=%d dirty=%d writes=%d, want 1/0/6", c.DegradedExits.Total(), h.DirtyCount(), b.writes)
	}
}

// TestFlushInoSurfacesPersistentFailure pins the fsync path: an inode flush
// against a dead backend reports an error after bounded retries instead of
// spinning forever.
func TestFlushInoSurfacesPersistentFailure(t *testing.T) {
	m, _, h, c, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	c.SetFaults(fault.New(m.Eng, []fault.Rule{
		{Site: fault.SiteCacheFlush, Kind: fault.KindBackendWriteErr}, // forever
	}))
	m.Eng.Go("host", func(p *sim.Proc) { h.WritePage(p, 3, 0, page(0xCC)) })
	m.Eng.Run()
	m.Eng.Go("dpu", func(p *sim.Proc) {
		if n, err := c.FlushIno(p, 3); err == nil {
			t.Errorf("FlushIno = (%d, nil), want error", n)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if h.DirtyCount() != 1 {
		t.Fatalf("page vanished: dirty = %d", h.DirtyCount())
	}
}

// TestDegradedFsyncReportsError pins the fsync contract under degraded
// mode (referenced from the FlushIno doc comment): with a WAL attached,
// SyncIno normally acknowledges fsync by journaling — but once persistent
// backend failures trip degraded mode, it must fall back to the synchronous
// flush path and surface the backend error. A journal ack here would claim
// durability for pages stuck behind a backend the flush daemon cannot
// reach.
func TestDegradedFsyncReportsError(t *testing.T) {
	m, _, h, c, b := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	wdev := ssd.New(m.Eng, ssd.DefaultConfig())
	c.SetWAL(wal.Open(m.Eng, wdev, wal.DefaultConfig()))

	// Healthy: fsync journals the dirty pages and leaves the backend alone.
	m.Eng.Go("healthy", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if !h.WritePage(p, 7, uint64(i), page(byte(i))) {
				t.Errorf("WritePage %d failed", i)
			}
		}
		if n, err := c.SyncIno(p, 7); err != nil || n != 6 {
			t.Errorf("healthy SyncIno = (%d, %v), want (6, nil)", n, err)
		}
	})
	m.Eng.Run()
	if b.writes != 0 {
		t.Fatalf("journaled fsync wrote through: %d backend writes", b.writes)
	}
	if h.DirtyCount() != 6 {
		t.Fatalf("dirty = %d, want 6 (journaling must not clean pages)", h.DirtyCount())
	}

	// The backend dies; enough failing passes trip degraded mode.
	c.SetFaults(fault.New(m.Eng, []fault.Rule{
		{Site: fault.SiteCacheFlush, Kind: fault.KindBackendWriteErr}, // forever
	}))
	m.Eng.Go("trip", func(p *sim.Proc) {
		for i := 0; i < degradedThreshold+1; i++ {
			if n, err := c.FlushPass(p, 100); n != 0 || err == nil {
				t.Errorf("FlushPass under injection = (%d, %v), want (0, error)", n, err)
			}
		}
	})
	m.Eng.Run()
	if !c.Degraded() {
		t.Fatal("failure streak did not trip degraded mode")
	}

	// Degraded fsync: no journal ack — the flush fallback runs and reports
	// the backend failure.
	commits := c.WAL().Device().Writes.Total()
	m.Eng.Go("degraded-fsync", func(p *sim.Proc) {
		if n, err := c.SyncIno(p, 7); err == nil {
			t.Errorf("degraded SyncIno = (%d, nil), want backend error", n)
		}
	})
	m.Eng.Run()
	if got := c.WAL().Device().Writes.Total(); got != commits {
		t.Fatalf("degraded fsync appended to the WAL (%d new device writes)", got-commits)
	}
	if h.DirtyCount() != 6 {
		t.Fatalf("dirty = %d after failed fsync, want 6", h.DirtyCount())
	}

	// Backend heals: the first successful flush exits degraded mode and
	// fsync succeeds (journaled again).
	c.SetFaults(nil)
	m.Eng.Go("heal", func(p *sim.Proc) {
		if n, err := c.SyncIno(p, 7); err != nil {
			t.Errorf("post-heal SyncIno = (%d, %v), want success", n, err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.Degraded() {
		// SyncIno's degraded fallback is FlushIno, which on success clears
		// the flag before returning.
		t.Fatal("still degraded after a successful fallback flush")
	}
	if b.writes != 6 {
		t.Fatalf("backend writes = %d, want 6 (healed fallback flushed)", b.writes)
	}
}

// stepper runs body once per call of the returned step function, on one
// long-lived process, so AllocsPerRun measures the body alone.
func stepper(m *model.Machine, body func(p *sim.Proc)) (step func()) {
	kick := sim.NewCond(m.Eng, "step")
	m.Eng.Go("stepper", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			body(p)
		}
	})
	m.Eng.Run()
	return func() {
		kick.Signal()
		m.Eng.Run()
	}
}

// TestFlushPassCleanTableZeroAllocs: the idle flush daemon's whole-table scan
// (64 chunk DMAs over 8192 entries) decodes DMA views in place and allocates
// nothing, while still charging every modelled DMA.
func TestFlushPassCleanTableZeroAllocs(t *testing.T) {
	m, _, _, c, _ := newTestCache(t, 8192, 1024, CtlConfig{})
	defer m.Eng.Shutdown()
	step := stepper(m, func(p *sim.Proc) {
		if n, err := c.FlushPass(p, 256); n != 0 || err != nil {
			t.Errorf("FlushPass over a clean table = %d, %v", n, err)
		}
	})
	step()
	m.PCIe.Mark()
	if a := testing.AllocsPerRun(20, step); a != 0 {
		t.Fatalf("clean FlushPass: %v allocs per pass, want 0", a)
	}
	passes := int64(21) // AllocsPerRun warms up with one extra call
	if got := m.PCIe.DMAs.Delta(); got != 64*passes {
		t.Fatalf("%d scan DMAs over %d passes, want 64 per pass", got, passes)
	}
	if got := m.PCIe.DMABytesH2D.Delta(); got != 8192*EntrySize*passes {
		t.Fatalf("%d scan bytes over %d passes, want 256 KiB per pass", got, passes)
	}
}

// TestReadEntryRemoteZeroAllocs: a single-entry meta read is one 32-byte DMA
// decoded from the view.
func TestReadEntryRemoteZeroAllocs(t *testing.T) {
	m, l, _, c, _ := newTestCache(t, 64, 8, CtlConfig{})
	defer m.Eng.Shutdown()
	want := Entry{Lock: LockNone, Status: StatusDirty, Next: 6, LPN: 77, Ino: 9, Ref: 1}
	WriteEntryMeta(m.HostMem, l, 5, want)
	step := stepper(m, func(p *sim.Proc) {
		if got := c.readEntryRemote(p, 5); got != want {
			t.Errorf("readEntryRemote = %+v, want %+v", got, want)
		}
	})
	step()
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("readEntryRemote: %v allocs, want 0", a)
	}
}

// TestScanDirtySelectsAndStops: the one scan helper behind FlushPass,
// FlushIno, journalIno and settleAll filters on status (and inode), returns
// indices in table order, and stops issuing DMAs once max are collected. A
// StatusLogged page is dirty; the journal's scan leaves it out only while its
// record has landed under the inode's current generation.
func TestScanDirtySelectsAndStops(t *testing.T) {
	m, l, _, c, _ := newTestCache(t, 512, 64, CtlConfig{})
	defer m.Eng.Shutdown()
	c.SetWAL(wal.Open(m.Eng, ssd.New(m.Eng, ssd.DefaultConfig()), wal.DefaultConfig()))
	mark := func(i int, status uint32, ino uint64) {
		e := ReadEntry(m.HostMem, l, i)
		e.Status, e.Ino = status, ino
		WriteEntryMeta(m.HostMem, l, i, e)
	}
	mark(3, StatusDirty, 7)
	mark(130, StatusDirty, 8)
	mark(131, StatusClean, 7)
	mark(200, StatusLogged, 7)
	c.logs[200] = logNote{ticket: 1, landed: true}
	mark(201, StatusLogged, 7)
	c.logs[201] = logNote{ticket: 2}
	mark(300, StatusDirty, 7)
	mark(511, StatusDirty, 7)
	m.Eng.Go("scan", func(p *sim.Proc) {
		check := func(name string, got []int, want []int, dmas int64) {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s = %v, want %v", name, got, want)
			}
			if d := m.PCIe.DMAs.Delta(); d != dmas {
				t.Errorf("%s issued %d DMAs, want %d", name, d, dmas)
			}
			m.PCIe.Mark()
		}
		m.PCIe.Mark()
		check("all", c.scanDirty(p, nil, anyIno, l.Total, false), []int{3, 130, 200, 201, 300, 511}, 4)
		check("ino 7", c.scanDirty(p, nil, 7, l.Total, false), []int{3, 200, 201, 300, 511}, 4)
		check("ino 7 unlogged", c.scanDirty(p, nil, 7, l.Total, true), []int{3, 201, 300, 511}, 4)
		c.walGens[7]++
		check("ino 7 unlogged, new generation", c.scanDirty(p, nil, 7, l.Total, true), []int{3, 200, 201, 300, 511}, 4)
		check("max 2", c.scanDirty(p, nil, anyIno, 2, false), []int{3, 130}, 2)
		check("max 0", c.scanDirty(p, nil, anyIno, 0, false), nil, 0)
	})
	m.Eng.Run()
}

// retainingBackend breaks the Backend.WritePage contract by keeping the
// slice it was handed.
type retainingBackend struct {
	memBackend
	kept []byte
}

func (b *retainingBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	b.kept = data
	return nil
}

// TestFlushPullFillsPoisonedBuffer: a flush pulls the page into a pooled
// buffer that is not cleared first, so the pull must cover it whole: with
// every released buffer poisoned, the backend still receives the page's
// bytes, flush after flush of the same recycled buffer.
func TestFlushPullFillsPoisonedBuffer(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	m, _, h, c, b := newTestCache(t, 64, 8, CtlConfig{})
	defer m.Eng.Shutdown()
	m.Eng.Go("app", func(p *sim.Proc) {
		for i := range 3 {
			if !h.WritePage(p, 1, uint64(i), page(byte(0x11*(i+1)))) {
				t.Error("host WritePage failed")
			}
			if n, err := c.FlushPass(p, 16); n != 1 || err != nil {
				t.Errorf("FlushPass = %d, %v", n, err)
			}
			if got := b.pages[[2]uint64{1, uint64(i)}]; !bytes.Equal(got, page(byte(0x11*(i+1)))) {
				t.Errorf("page %d reached the backend as %#x...", i, got[:4])
			}
		}
	})
	m.Eng.Run()
}

// TestFlushPageBufferIsRecycled: the page a flush hands to WritePage is a
// pooled buffer released when WritePage returns. With the pool's poison
// switch on (as the torture and determinism tests run), a backend that
// retains it ends up holding poison, not page bytes — the use-after-release
// net catches the contract violation instead of letting it pass by luck.
func TestFlushPageBufferIsRecycled(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	m, _, h, c, _ := newTestCache(t, 64, 8, CtlConfig{})
	defer m.Eng.Shutdown()
	rb := &retainingBackend{memBackend: *newMemBackend()}
	c.SetBackend(rb)
	m.Eng.Go("app", func(p *sim.Proc) {
		if !h.WritePage(p, 1, 0, page(0x5A)) {
			t.Error("host WritePage failed")
		}
		if n, err := c.FlushPass(p, 16); n != 1 || err != nil {
			t.Errorf("FlushPass = %d, %v", n, err)
		}
	})
	m.Eng.Run()
	if len(rb.kept) != 4096 || !bytes.Equal(rb.kept, bytes.Repeat([]byte{bufpool.PoisonByte}, 4096)) {
		t.Fatalf("retained flush buffer holds %#x..., want poison: the buffer was not recycled", rb.kept[:4])
	}
}

// TestLookupWaitsOutHeldLock pins the host side of the entry protocol: a
// lookup that meets a held lock waits and reads the page from the cache, and
// answers "absent" only when the holder turns out to have freed the entry.
func TestLookupWaitsOutHeldLock(t *testing.T) {
	m, l, h, c, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	m.Eng.Go("host", func(p *sim.Proc) {
		if !h.WritePage(p, 7, 3, page(0xAB)) || !h.WritePage(p, 7, 4, page(0xCD)) {
			t.Error("WritePage failed")
			return
		}
		kept, evicted := h.findEntry(7, 3), h.findEntry(7, 4)
		m.Eng.Go("dpu", func(pp *sim.Proc) {
			if !c.lock(pp, kept, LockRead) || !c.lock(pp, evicted, LockWrite) {
				t.Error("ctl could not lock an idle entry")
				return
			}
			pp.Sleep(40 * time.Microsecond) // a backend write's worth
			c.unlock(pp, kept)
			c.setStatus(pp, evicted, StatusFree)
			m.PCIe.AtomicFetchAdd32(pp, m.HostMem, l.Base+hdrFree, 1, "cache-free-inc")
			c.unlock(pp, evicted)
		})
		p.Sleep(10 * time.Microsecond) // both locks are held by now
		from := p.Now()
		if got, ok := lookupPage(p, h, 7, 3); !ok || !bytes.Equal(got, page(0xAB)) {
			t.Error("lookup of a locked page did not wait for it")
		}
		if waited := time.Duration(p.Now() - from); waited < 25*time.Microsecond {
			t.Errorf("lookup returned after %v, before the lock was released", waited)
		}
		if _, ok := lookupPage(p, h, 7, 4); ok {
			t.Error("lookup hit an entry that was freed under its lock")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if h.Hits.Total() != 1 || h.Misses.Total() != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", h.Hits.Total(), h.Misses.Total())
	}
	if probs := Fsck(m.HostMem, l); len(probs) > 0 {
		t.Errorf("fsck after the waits: %v", probs)
	}
}

// TestFsckReportsEachCorruption corrupts a healthy table by hand, one
// invariant at a time, and expects exactly one finding per corruption.
func TestFsckReportsEachCorruption(t *testing.T) {
	m, l, h, c, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	var idx [4]int
	m.Eng.Go("host", func(p *sim.Proc) {
		for k := range idx {
			if !h.WritePage(p, 9, uint64(k), page(byte(k))) {
				t.Error("WritePage failed")
				return
			}
			idx[k] = h.findEntry(9, uint64(k))
		}
		c.FillPage(p, 9, 100, page(0x11))
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	hm := m.HostMem
	word := func(i, off int) mem.Addr { return l.EntryAddr(i) + mem.Addr(off) }
	hm.PutUint32(word(idx[3], offStatus), StatusLogged) // journaled: as healthy as dirty
	if probs := Fsck(hm, l); len(probs) > 0 {
		t.Fatalf("healthy table: %v", probs)
	}

	wrongBucket := uint64(1000) // an lpn nobody holds, hashing elsewhere
	for l.BucketOf(9, wrongBucket) == idx[3]/l.EntriesPerBucket() {
		wrongBucket++
	}
	corruptions := []struct {
		name string
		do   func()
		want string
	}{
		{"leaked lock", func() { hm.PutUint32(word(idx[0], offLock), LockRead) }, "lock word 2 still held"},
		{"pending claim", func() { hm.PutUint32(word(idx[1], offStatus), StatusInvalid) }, "left pending"},
		{"next pointer", func() { hm.PutUint32(word(idx[2], offNext), uint32(idx[2])) }, "next pointer"},
		{"wrong bucket", func() { hm.PutUint64(word(idx[3], offLPN), wrongBucket) }, "hashes to"},
		{"duplicate", func() {
			lo, hi := l.BucketEntries(idx[0] / l.EntriesPerBucket())
			for i := lo; i < hi; i++ {
				if ReadEntry(hm, l, i).Status == StatusFree {
					WriteEntryMeta(hm, l, i, Entry{Status: StatusClean, Next: l.chainNext(i), Ino: 9, LPN: 0})
					AddHeaderFree(hm, l, -1)
					return
				}
			}
			t.Fatal("no free entry left in the bucket")
		}, "both hold <9,0>"},
		{"free counter", func() { AddHeaderFree(hm, l, 1) }, "header free counter"},
		{"unknown status", func() { hm.PutUint32(word(idx[2], offStatus), StatusLogged+1) }, "unknown status"},
	}
	for n, cr := range corruptions {
		cr.do()
		probs := Fsck(hm, l)
		if len(probs) != n+1 {
			t.Fatalf("after %q: %d findings, want %d: %v", cr.name, len(probs), n+1, probs)
		}
		hits := 0
		for _, pr := range probs {
			if strings.Contains(pr, cr.want) {
				hits++
			}
		}
		if hits != 1 {
			t.Errorf("%q reported %d times, want once: %v", cr.name, hits, probs)
		}
	}
}

// slowBackend stretches every write-back to delay, so the flusher holds its
// entry lock long enough for others to meet it; with fail set the write-back
// also fails, leaving the page dirty.
type slowBackend struct {
	memBackend
	delay time.Duration
	fail  bool
	done  sim.Time // when the last write-back returned
}

func (b *slowBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	p.Sleep(b.delay)
	b.done = p.Now()
	if b.fail {
		return fmt.Errorf("slow backend: write of <%d,%d> failed", ino, lpn)
	}
	return b.memBackend.WritePage(p, ino, lpn, pageSize, data)
}

// TestSettleParksOnSiblingFlush: a daemon pass is 5 ms into the write-back of
// a page when fsync must settle the same page. The lock is the control
// plane's own, so the wait costs no PCIe atomic — the handful counted are the
// flusher's release and fsync's own lock/unlock, where a polling settle issues
// thousands — and fsync returns only once the write-back has: observing the
// page clean (FlushIno), or, the write-back having failed, journaling the
// still-dirty page itself (SyncIno with a WAL).
func TestSettleParksOnSiblingFlush(t *testing.T) {
	for _, journal := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journal), func(t *testing.T) {
			m, _, h, c, _ := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
			defer m.Eng.Shutdown()
			slow := &slowBackend{memBackend: *newMemBackend(), delay: 5 * time.Millisecond, fail: journal}
			c.SetBackend(slow)
			want := 0 // pages fsync itself takes, and pages left dirty
			if journal {
				c.SetWAL(wal.Open(m.Eng, ssd.New(m.Eng, ssd.DefaultConfig()), wal.DefaultConfig()))
				want = 1
			}
			m.Eng.Go("app", func(p *sim.Proc) {
				if !h.WritePage(p, 7, 0, page(0x11)) {
					t.Error("WritePage failed")
					return
				}
				m.Eng.Go("daemon", func(pp *sim.Proc) { c.FlushPass(pp, 16) })
				p.Sleep(100 * time.Microsecond)
				if i := h.findEntry(7, 0); c.HeldEntry() != i {
					t.Errorf("100 µs into the write-back the control plane holds entry %d, want %d", c.HeldEntry(), i)
				}
				atomics := m.PCIe.Atomics.Total()
				n, err := c.SyncIno(p, 7)
				if n != want || err != nil {
					t.Errorf("SyncIno = (%d, %v), want (%d, nil)", n, err, want)
				}
				if slow.done == 0 || p.Now() < slow.done {
					t.Errorf("fsync returned at %v, before the write-back it met (done at %v)", p.Now(), slow.done)
				}
				if got := m.PCIe.Atomics.Total() - atomics; got > 8 {
					t.Errorf("%d PCIe atomics while fsync waited out a DPU-held lock, want a handful", got)
				}
			})
			m.Eng.Run()
			if h.DirtyCount() != want {
				t.Errorf("dirty = %d after fsync, want %d", h.DirtyCount(), want)
			}
			if journal && c.WAL().Device().Writes.Total() == 0 {
				t.Error("the still-dirty page was not journaled")
			}
			if i := c.HeldEntry(); i >= 0 {
				t.Errorf("entry %d still recorded as held at quiesce", i)
			}
		})
	}
}

// TestSettleStillPollsHostHeldLock: the DPU cannot see a host release, so a
// lock word the host took (a plain CAS in host memory, unknown to Ctl.held) is
// still waited out by bounded PCIe CAS rounds, and fsync finishes once the
// host unlocks.
func TestSettleStillPollsHostHeldLock(t *testing.T) {
	m, l, h, c, b := newTestCache(t, 64, 8, CtlConfig{FlushEnabled: false})
	defer m.Eng.Shutdown()
	var unlocked sim.Time
	m.Eng.Go("host", func(p *sim.Proc) {
		if !h.WritePage(p, 7, 0, page(0x22)) {
			t.Error("WritePage failed")
			return
		}
		i := h.findEntry(7, 0)
		if !m.HostMem.CompareAndSwap32(l.EntryAddr(i)+offLock, LockNone, LockWrite) {
			t.Error("host could not lock an idle entry")
			return
		}
		m.Eng.Go("fsync", func(pp *sim.Proc) {
			atomics := m.PCIe.Atomics.Total()
			if n, err := c.FlushIno(pp, 7); n != 1 || err != nil {
				t.Errorf("FlushIno = (%d, %v), want (1, nil)", n, err)
			}
			if unlocked == 0 || pp.Now() < unlocked {
				t.Errorf("fsync returned at %v, before the host unlocked (%v)", pp.Now(), unlocked)
			}
			if got := m.PCIe.Atomics.Total() - atomics; got < 16 {
				t.Errorf("%d PCIe atomics over a 200 µs host-held lock: settle did not poll it", got)
			}
		})
		p.Sleep(200 * time.Microsecond)
		if c.HeldEntry() >= 0 {
			t.Errorf("the host-held lock on entry %d is recorded as the control plane's", c.HeldEntry())
		}
		unlocked = p.Now()
		h.unlock(i)
	})
	m.Eng.Run()
	if h.DirtyCount() != 0 || b.writes != 1 {
		t.Errorf("dirty = %d, backend writes = %d after fsync, want 0 and 1", h.DirtyCount(), b.writes)
	}
}

// TestSettleParkZeroAllocs: a settle that parks on a sibling's lock, is woken
// by the release, re-reads the entry and then takes it allocates nothing.
func TestSettleParkZeroAllocs(t *testing.T) {
	m, l, _, c, _ := newTestCache(t, 64, 8, CtlConfig{})
	defer m.Eng.Shutdown()
	const entry, ino = 5, 9
	WriteEntryMeta(m.HostMem, l, entry, Entry{Status: StatusDirty, Next: l.chainNext(entry), LPN: 77, Ino: ino})
	try := func(pp *sim.Proc, i int) (took, gone bool, err error) {
		if !c.lock(pp, i, LockRead) {
			return false, false, nil
		}
		c.unlock(pp, i)
		return true, false, nil
	}
	var parked time.Duration
	kick := sim.NewCond(m.Eng, "step")
	m.Eng.Go("holder", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			if !c.lock(p, entry, LockRead) {
				t.Error("holder could not lock an idle entry")
			}
			p.Sleep(10 * time.Microsecond)
			c.unlock(p, entry)
		}
	})
	m.Eng.Go("settler", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			p.Sleep(5 * time.Microsecond) // the holder has the lock by now
			from := p.Now()
			if took, err := c.settle(p, p, entry, ino, try); !took || err != nil {
				t.Errorf("settle = (%v, %v), want (true, nil)", took, err)
			}
			parked = time.Duration(p.Now() - from)
		}
	})
	m.Eng.Run()
	step := func() {
		kick.Broadcast()
		m.Eng.Run()
	}
	step()
	if parked < 5*time.Microsecond {
		t.Fatalf("settle returned after %v: it never met the held lock", parked)
	}
	m.PCIe.Mark()
	if a := testing.AllocsPerRun(50, step); a != 0 {
		t.Fatalf("parked-and-released settle: %v allocs per round, want 0", a)
	}
	// Per round: the holder's lock + unlock and try's lock + unlock.
	if got := m.PCIe.Atomics.Delta(); got != 4*51 {
		t.Fatalf("%d PCIe atomics over 51 rounds, want 4 per round", got)
	}
}

// TestSettleWakesOnlyOnItsEntry: while a settle is parked on entry 5, a
// sibling process locks and unlocks ten other entries; none of those releases
// wakes it, so the settle parks once, and it returns at entry 5's release.
func TestSettleWakesOnlyOnItsEntry(t *testing.T) {
	m, l, _, c, _ := newTestCache(t, 64, 8, CtlConfig{})
	defer m.Eng.Shutdown()
	const entry, ino = 5, 9
	WriteEntryMeta(m.HostMem, l, entry, Entry{Status: StatusDirty, Next: l.chainNext(entry), LPN: 77, Ino: ino})
	try := func(pp *sim.Proc, i int) (took, gone bool, err error) {
		if !c.lock(pp, i, LockRead) {
			return false, false, nil
		}
		c.unlock(pp, i)
		return true, false, nil
	}
	var released sim.Time
	m.Eng.Go("holder", func(p *sim.Proc) {
		if !c.lock(p, entry, LockRead) {
			t.Error("holder could not lock an idle entry")
		}
		p.Sleep(10 * time.Microsecond) // the settle parks meanwhile
		for i := 10; i < 20; i++ {
			if !c.lock(p, i, LockRead) {
				t.Errorf("holder could not lock idle entry %d", i)
			}
			c.unlock(p, i)
		}
		released = p.Now()
		c.unlock(p, entry)
	})
	m.Eng.Go("settler", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond)
		parks := m.Eng.Parks
		if took, err := c.settle(p, p, entry, ino, try); !took || err != nil {
			t.Errorf("settle = (%v, %v), want (true, nil)", took, err)
		}
		if got := m.Eng.Parks - parks; got != 1 {
			t.Errorf("settle parked %d times, want 1", got)
		}
		if p.Now() < released {
			t.Errorf("settle returned at %v, before entry %d's release at %v", p.Now(), entry, released)
		}
	})
	m.Eng.Run()
}
