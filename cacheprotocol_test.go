package dpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpc/internal/cache"
	"dpc/internal/kvfs"
	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// These tests pin the hybrid cache's entry-lock protocol from the outside:
// a host path that meets a held entry lock waits for it and works on the
// cached page, so a buffered read can never be older than the last
// acknowledged write. Before the protocol was written once (cache.Host's
// acquire), the read side took a held lock for a miss and, after three fills
// that found the entry still locked, read the backend *around* the cache —
// returning whatever the backend had while the newer dirty page sat in host
// memory under the flusher's lock.

// slowFlushBackend stretches every write-back, and with it the time the
// flusher holds the entry's read lock, so reads are sure to meet it.
type slowFlushBackend struct {
	kvfs.PageBackend
	delay   time.Duration
	writing int // write-backs in progress
}

func (b *slowFlushBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	b.writing++
	p.Sleep(b.delay)
	err := b.PageBackend.WritePage(p, ino, lpn, pageSize, data)
	b.writing--
	return err
}

// TestBufferedReadDuringWriteBack: a page is written buffered and then
// flushed through a backend that takes 5 ms; a second thread reads it
// buffered every 50 µs for as long as the flush lasts. Every read must return
// the acknowledged write — not the backend's previous version (flushedBefore)
// and not a hole (the page has never reached the backend).
func TestBufferedReadDuringWriteBack(t *testing.T) {
	for _, flushedBefore := range []bool{true, false} {
		t.Run(fmt.Sprintf("flushedBefore=%v", flushedBefore), func(t *testing.T) {
			poisonPool(t)
			o := obs.New()
			opts := DefaultOptions()
			opts.Model.Obs = o
			sys := New(opts)
			defer sys.Shutdown()
			cl := sys.KVFSClient()
			ps := cachePageSize
			v0, v1 := bytes.Repeat([]byte{0xA0}, ps), bytes.Repeat([]byte{0xB1}, ps)
			slow := &slowFlushBackend{PageBackend: kvfs.PageBackend{FS: sys.KVFS}, delay: 5 * time.Millisecond}

			var acked, flushed bool
			writer := func(p *sim.Proc) {
				defer func() { acked, flushed = true, true }()
				f, err := cl.Create(p, 0, "/f")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if flushedBefore {
					if err := f.Write(p, 0, 0, v0, false); err != nil {
						t.Errorf("write v0: %v", err)
					}
					if err := f.Sync(p, 0); err != nil {
						t.Errorf("sync v0: %v", err)
					}
				}
				sys.KVFSService().Ctl.SetBackend(slow)
				if err := f.Write(p, 0, 0, v1, false); err != nil {
					t.Errorf("write v1: %v", err)
				}
				acked = true
				if err := f.Sync(p, 0); err != nil {
					t.Errorf("sync v1: %v", err)
				}
			}
			reads, overlapped, wrong := 0, 0, 0
			reader := func(p *sim.Proc) {
				for !acked {
					p.Sleep(50 * time.Microsecond)
				}
				f, err := cl.Open(p, 1, "/f")
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				buf := make([]byte, ps)
				for !flushed {
					issued, during := p.Now(), slow.writing > 0
					n, err := f.ReadInto(p, 1, 0, buf, false)
					reads++
					if during {
						overlapped++
					}
					if err != nil || n != ps || !bytes.Equal(buf, v1) {
						if wrong++; wrong == 1 {
							t.Errorf("buffered read issued at %v (write-back in progress: %v) returned n=%d err=%v first byte %#x, want the acknowledged %#x page",
								time.Duration(issued), during, n, err, buf[0], v1[0])
						}
					}
					p.Sleep(50 * time.Microsecond)
				}
			}
			sys.Drive(writer, reader)
			if overlapped == 0 {
				t.Fatalf("none of %d reads was issued during the write-back: the test exercised nothing", reads)
			}
			if wrong > 0 {
				t.Errorf("%d of %d reads (%d issued during the write-back) did not return the acknowledged write", wrong, reads, overlapped)
			}
			// The reader's wait is attributed, once, as cache.lock.
			pr := prof.Analyze(o.Tracer().Export(sys.Now()))
			for _, err := range pr.CheckInvariant() {
				t.Errorf("attribution invariant: %v", err)
			}
			if pr.Anomalies != 0 {
				t.Errorf("%d attribution anomalies", pr.Anomalies)
			}
			if waited := time.Duration(pr.WaitKinds["cache.lock"]); waited < slow.delay/2 {
				t.Errorf("cache.lock wait attributed to the reads: %v, want most of the %v write-back", waited, slow.delay)
			}
		})
	}
}

const stampSector = 512

// stampPage marks every 512-byte sector of page with (lpn, version) and fills
// the rest of the sector from them, so a page assembled from two versions, or
// served for the wrong lpn, is visible in any sector.
func stampPage(page []byte, lpn, version uint64) {
	for off := 0; off < len(page); off += stampSector {
		s := page[off : off+stampSector]
		binary.LittleEndian.PutUint64(s, lpn)
		binary.LittleEndian.PutUint64(s[8:], version)
		body := s[16:]
		body[0] = stampFill(lpn, version)
		for n := 1; n < len(body); n *= 2 {
			copy(body[n:], body[:n]) // doubling copies, not a byte loop: the race detector instruments each store
		}
	}
}

func stampFill(lpn, version uint64) byte { return byte(lpn*31 + version*7) }

// checkStamps verifies that every sector of page is a stampPage sector of
// lpn at one version within [lo, hi].
func checkStamps(page []byte, lpn, lo, hi uint64) error {
	for off := 0; off < len(page); off += stampSector {
		s := page[off : off+stampSector]
		gotLPN, v := binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[8:])
		if gotLPN != lpn || v < lo || v > hi {
			return fmt.Errorf("lpn %d sector %d holds (lpn %d, v %d), want lpn %d at a version in [%d, %d]",
				lpn, off/stampSector, gotLPN, v, lpn, lo, hi)
		}
		if body := s[16:]; bytes.Count(body, []byte{stampFill(lpn, v)}) != len(body) {
			return fmt.Errorf("lpn %d sector %d: body does not match its stamp (lpn %d, v %d)", lpn, off/stampSector, lpn, v)
		}
	}
	return nil
}

// TestSharedPagesReadersNeverSeeStaleVersions is the concurrent torture the
// single-proc differential harness cannot run: 4 writers and 8 readers on the
// same 96 pages of one file, through a 64-page / 8-bucket cache, so lookups
// race write-back, eviction, fills and each other all the time. Page l
// belongs to writer l%4, which makes the versions of a page totally ordered.
// Oracle: a buffered read returns, in every sector, the right lpn and a
// version no older than the last write acknowledged before the read was
// issued and no newer than the last one issued when it completed. The meta
// table must fsck clean once everything has quiesced.
func TestSharedPagesReadersNeverSeeStaleVersions(t *testing.T) {
	ops := 1500 // per proc
	// The think-time PRNGs of every proc are re-seeded per k: each k is another
	// interleaving of the same shape, and three of these four caught a
	// write-through that skipped the coherence step (see writePageCached).
	seeds := []int64{0, 3, 5, 11}
	if raceBuild {
		ops, seeds = 300, seeds[:1]
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"plain", func(*Options) {}},
		{"wal", func(o *Options) { o.WAL.Enabled = true }},
		{"inline", func(o *Options) { o.NvmeFS.InlineMax = 512 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, k := range seeds {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { sharedPagesRun(t, v.set, ops, k) })
			}
		})
	}
}

// sharedPagesRun is one run of TestSharedPagesReadersNeverSeeStaleVersions:
// ops operations per proc, think times drawn from seed offset k.
func sharedPagesRun(t *testing.T, set func(*Options), ops int, k int64) {
	const (
		pages   = 96
		writers = 4
		readers = 8
	)
	poisonPool(t)
	opts := DefaultOptions()
	opts.CachePages = 64
	opts.CacheBuckets = 8
	set(&opts)
	sys := New(opts)
	defer sys.Shutdown()
	cl := sys.KVFSClient()
	ps := uint64(cachePageSize)

	// issued[l] is bumped before writer l%4 submits a version of page l,
	// acked[l] set once that write has returned.
	var issued, acked [pages]uint64
	writePage := func(p *sim.Proc, f *File, qid int, page []byte, l uint64) bool {
		issued[l]++
		v := issued[l]
		stampPage(page, l, v)
		if err := f.Write(p, qid, l*ps, page, false); err != nil {
			t.Errorf("write lpn %d v %d: %v", l, v, err)
			return false
		}
		acked[l] = v
		return true
	}

	sys.Drive(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/shared")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		page := make([]byte, ps)
		for l := uint64(0); l < pages; l++ {
			if !writePage(p, f, 0, page, l) {
				return
			}
		}
	})
	if t.Failed() {
		return
	}

	var procs []func(p *sim.Proc)
	failed := false // first violation stops every proc
	for w := 0; w < writers; w++ {
		procs = append(procs, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(100+w) + 1000*k))
			f, err := cl.Open(p, w, "/shared")
			if err != nil {
				t.Errorf("writer %d open: %v", w, err)
				return
			}
			page := make([]byte, ps)
			for i := 0; i < ops && !failed; i++ {
				l := uint64(rng.Intn(pages/writers)*writers + w)
				if !writePage(p, f, w, page, l) {
					failed = true
					return
				}
				if rng.Intn(64) == 0 {
					if err := f.Sync(p, w); err != nil {
						t.Errorf("writer %d sync: %v", w, err)
						failed = true
						return
					}
				}
				p.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
			}
		})
	}
	for r := 0; r < readers; r++ {
		procs = append(procs, func(p *sim.Proc) {
			qid := writers + r
			rng := rand.New(rand.NewSource(int64(200+r) + 1000*k))
			f, err := cl.Open(p, qid, "/shared")
			if err != nil {
				t.Errorf("reader %d open: %v", r, err)
				return
			}
			buf := make([]byte, 3*ps)
			var lo [3]uint64
			for i := 0; i < ops && !failed; i++ {
				l := uint64(rng.Intn(pages))
				k := uint64(1 + rng.Intn(3))
				if l+k > pages {
					k = pages - l
				}
				copy(lo[:], acked[l:l+k])
				at := p.Now()
				n, err := f.ReadInto(p, qid, l*ps, buf[:k*ps], false)
				if err != nil || uint64(n) != k*ps {
					t.Errorf("reader %d: read of %d pages at lpn %d: n=%d err=%v", r, k, l, n, err)
					failed = true
					return
				}
				for j := uint64(0); j < k; j++ {
					if err := checkStamps(buf[j*ps:(j+1)*ps], l+j, lo[j], issued[l+j]); err != nil {
						t.Errorf("reader %d, buffered read issued at %v: %v", r, time.Duration(at), err)
						failed = true
						return
					}
				}
				p.Sleep(time.Duration(rng.Intn(10)) * time.Microsecond)
			}
		})
	}
	sys.Drive(procs...)
	if t.Failed() {
		return
	}

	// Quiesce, then every page must hold its last acknowledged version
	// in the cache's view and in the backend's, and both structures
	// must check clean.
	sys.Drive(func(p *sim.Proc) {
		f, err := cl.Open(p, 0, "/shared")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := cl.Sync(p, 0); err != nil {
			t.Errorf("final sync: %v", err)
		}
		buf := make([]byte, ps)
		for _, direct := range []bool{false, true} {
			for l := uint64(0); l < pages; l++ {
				if n, err := f.ReadInto(p, 0, l*ps, buf, direct); err != nil || uint64(n) != ps {
					t.Errorf("final read lpn %d direct=%v: n=%d err=%v", l, direct, n, err)
				} else if err := checkStamps(buf, l, acked[l], acked[l]); err != nil {
					t.Errorf("final read direct=%v: %v", direct, err)
				}
			}
		}
		p.Sleep(time.Millisecond) // let the last prefetches land
		for _, prob := range cache.Fsck(sys.M.HostMem, sys.kvfsHost.L) {
			t.Errorf("meta fsck: %s", prob)
		}
		if i := sys.KVFSService().Ctl.HeldEntry(); i >= 0 {
			t.Errorf("control plane still records entry %d's lock as held", i)
		}
		if i := sys.KVFSService().Ctl.PendingLog(); i >= 0 {
			t.Errorf("entry %d still carries an unfinished journal attempt", i)
		}
		if n := sys.KVFSService().Ctl.InflightReads(); n != 0 {
			t.Errorf("%d pages still in the in-flight read table", n)
		}
		for _, prob := range kvfs.Fsck(sys.KVCluster).Problems {
			t.Errorf("kvfs fsck: %s", prob)
		}
	})
}

// TestMissEngineTerminatesUnderThrash: with no uncached read to fall back on,
// a page evicted between its fill and the re-probe is filled again, so the
// miss engine's only exit is the bytes. Worst case for that loop: six readers
// each pulling 64-page buffered reads through an 8-page / 2-bucket cache, so
// nearly every fill is evicted by a neighbour before it is read. Every read
// must still come back, with the right bytes.
func TestMissEngineTerminatesUnderThrash(t *testing.T) {
	const (
		pages   = 64
		readers = 6
	)
	rounds := 20
	if raceBuild {
		rounds = 4
	}
	poisonPool(t)
	opts := DefaultOptions()
	opts.CachePages = 8
	opts.CacheBuckets = 2
	sys := New(opts)
	defer sys.Shutdown()
	cl := sys.KVFSClient()
	ps := cachePageSize

	want := make([]byte, pages*ps)
	for l := 0; l < pages; l++ {
		stampPage(want[l*ps:(l+1)*ps], uint64(l), 1)
	}
	sys.Drive(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/thrash")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, want, true); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if t.Failed() {
		return
	}

	var procs []func(p *sim.Proc)
	for r := 0; r < readers; r++ {
		procs = append(procs, func(p *sim.Proc) {
			f, err := cl.Open(p, r, "/thrash")
			if err != nil {
				t.Errorf("reader %d open: %v", r, err)
				return
			}
			buf := make([]byte, len(want))
			for i := 0; i < rounds; i++ {
				n, err := f.ReadInto(p, r, 0, buf, false)
				if err != nil || n != len(want) || !bytes.Equal(buf, want) {
					t.Errorf("reader %d round %d: n=%d err=%v, bytes equal: %v", r, i, n, err, bytes.Equal(buf, want))
					return
				}
			}
		})
	}
	sys.Drive(procs...)
	fills := sys.KVFSService().Ctl.Fills.Total()
	if min := int64(readers * rounds * pages / 2); fills < min {
		t.Errorf("%d fills for %d page reads: the cache did not thrash, the test exercised nothing", fills, readers*rounds*pages)
	}
	t.Logf("%d page reads took %d fills", readers*rounds*pages, fills)
}

// streamWorld builds the world of the fill-window tests: default options and
// one KVFS file of pages pages written direct as 0xA0.
func streamWorld(t *testing.T, pages int) (*System, *File) {
	t.Helper()
	poisonPool(t)
	sys := New(DefaultOptions())
	t.Cleanup(sys.Shutdown)
	var f *File
	v0 := bytes.Repeat([]byte{0xA0}, cachePageSize)
	sys.Drive(func(p *sim.Proc) {
		var err error
		if f, err = sys.KVFSClient().Create(p, 0, "/stream"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for l := 0; l < pages; l++ {
			if err := f.Write(p, 0, uint64(l)*cachePageSize, v0, true); err != nil {
				t.Errorf("prefill lpn %d: %v", l, err)
				return
			}
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return sys, f
}

// streamReader returns a process that streams buffered reads of f's pages
// from *pos on, one page at a time, until EOF (or pages), then sets *done.
func streamReader(t *testing.T, f *File, pages uint64, pos *uint64, done *bool) func(*sim.Proc) {
	return func(p *sim.Proc) {
		defer func() { *done = true }()
		buf := make([]byte, cachePageSize)
		for ; *pos < pages; *pos++ {
			n, err := f.ReadInto(p, 1, *pos*cachePageSize, buf, false)
			if err != nil {
				t.Errorf("read lpn %d: %v", *pos, err)
				return
			}
			if n == 0 {
				return // truncated under the reader
			}
		}
	}
}

// TestPrefetchDuringDirectWritesKeepsNoStalePage: the fill vs bypass-write
// window, reached through the prefetcher. A reader streams buffered reads of
// a 768-page file while a writer direct-writes one page 200 pages ahead of it
// every 20 µs. The prefetcher's range read of a window can finish before such
// a write lands and its fill only after: the write's cache merge finds the
// page absent, and unless the DPU retracts the fill, the page it installs is
// the pre-write one, which every later buffered read serves as current.
func TestPrefetchDuringDirectWritesKeepsNoStalePage(t *testing.T) {
	const (
		pages = 768
		ahead = 200
	)
	sys, f := streamWorld(t, pages)
	ps := uint64(cachePageSize)
	v1 := bytes.Repeat([]byte{0xB1}, int(ps))
	var (
		pos     uint64 // the reader's next page
		done    bool
		written [pages]bool
		writes  int
	)
	writer := func(p *sim.Proc) {
		for !done {
			p.Sleep(20 * time.Microsecond)
			l := pos + ahead
			if l >= pages || written[l] {
				continue
			}
			if err := f.Write(p, 2, l*ps, v1, true); err != nil {
				t.Errorf("direct write lpn %d: %v", l, err)
				return
			}
			written[l] = true
			writes++
		}
	}
	sys.Drive(streamReader(t, f, pages, &pos, &done), writer)
	if writes == 0 {
		t.Fatal("the writer never wrote ahead of the reader: the test exercised nothing")
	}
	sys.Drive(func(p *sim.Proc) {
		buf := make([]byte, ps)
		for l := range written {
			if !written[l] {
				continue
			}
			if _, err := f.ReadInto(p, 3, uint64(l)*ps, buf, false); err != nil {
				t.Errorf("read back lpn %d: %v", l, err)
			} else if !bytes.Equal(buf, v1) {
				t.Errorf("lpn %d reads back %#x after its acknowledged %#x direct write", l, buf[0], v1[0])
			}
		}
	})
	t.Logf("%d direct writes, %d prefetches", writes, sys.KVFSService().Ctl.Prefetches.Total())
}

// TestTruncateDuringPrefetchKeepsNoDeadPage: the fill vs truncate window. A
// reader streams buffered reads of a 768-page file, keeping prefetch windows
// in flight, when the file is truncated. A fill whose backend read predates
// the truncate must leave no page in the cache: once a direct write past
// every prefetched page re-extends the file, the truncated pages are holes
// and must read back as zeros, not as the 0xA0 they held before.
func TestTruncateDuringPrefetchKeepsNoDeadPage(t *testing.T) {
	const pages = 768
	for _, at := range []uint64{64, 256, 512} {
		t.Run(fmt.Sprintf("at page %d", at), func(t *testing.T) {
			sys, f := streamWorld(t, pages)
			ctl := sys.KVFSService().Ctl
			var (
				pos  uint64
				done bool
				pre  int64 // prefetches when the truncate was issued
			)
			truncater := func(p *sim.Proc) {
				for pos < at && !done {
					p.Sleep(time.Microsecond)
				}
				pre = ctl.Prefetches.Total()
				if err := f.Truncate(p, 2); err != nil {
					t.Errorf("truncate: %v", err)
				}
			}
			sys.Drive(streamReader(t, f, pages, &pos, &done), truncater)
			if pre == 0 {
				t.Fatal("nothing was prefetched when the truncate was issued: the test exercised nothing")
			}
			sys.Drive(func(p *sim.Proc) {
				p.Sleep(10 * time.Millisecond) // every prefetch in flight lands
				end := bytes.Repeat([]byte{0xB1}, cachePageSize)
				if err := f.Write(p, 0, pages*cachePageSize, end, true); err != nil {
					t.Errorf("re-extend: %v", err)
					return
				}
				buf := make([]byte, cachePageSize)
				dead := 0
				for l := uint64(0); l < pages; l++ {
					if _, err := f.ReadInto(p, 3, l*cachePageSize, buf, false); err != nil {
						t.Errorf("read back lpn %d: %v", l, err)
					} else if !bytes.Equal(buf, make([]byte, cachePageSize)) {
						if dead++; dead == 1 {
							t.Errorf("lpn %d reads back %#x after the truncate", l, buf[0])
						}
					}
				}
				if dead > 0 {
					t.Errorf("%d truncated pages read back dead bytes", dead)
				}
			})
			t.Logf("%d prefetches before the truncate, %d in all", pre, ctl.Prefetches.Total())
		})
	}
}
