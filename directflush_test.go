package dpc

import (
	"testing"
	"time"

	"dpc/internal/kvfs"
	"dpc/internal/sim"
)

// TestDirectWritesRacingFlushKeepLastVersion: a direct writer and the
// cache's 32-way write-back work on the same file at once, so KVFS sees
// flush write-backs and direct overwrites of one inode in flight together.
// The file's two halves swap roles every phase: while the direct writer
// overwrites one half page by page, the buffered writer dirties the other,
// and a flusher proc runs daemon passes back to back over those dirty pages
// (each direct write's pre-write sync settles with it too). A page's next
// write is issued only once its previous one is acknowledged, so each page
// has one last acknowledged version. After a final fsync every page, read
// direct from the backend and buffered through the cache, must carry that
// version in every sector.
func TestDirectWritesRacingFlushKeepLastVersion(t *testing.T) {
	const (
		pages  = 128
		phases = 7 // the last leaves half the pages direct-written, half dirty
	)
	poisonPool(t)
	sys := New(DefaultOptions())
	t.Cleanup(sys.Shutdown)
	ctl := sys.KVFSService().Ctl
	ps := uint64(cachePageSize)
	var (
		f    *File
		acks [pages]uint64 // writes of page l acknowledged so far; its version
	)
	sys.Drive(func(p *sim.Proc) {
		var err error
		if f, err = sys.KVFSClient().Create(p, 0, "/race"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := make([]byte, pages*ps)
		for l := uint64(0); l < pages; l++ {
			stampPage(buf[l*ps:(l+1)*ps], l, 0)
		}
		if err := f.Write(p, 0, 0, buf, true); err != nil {
			t.Errorf("prefill: %v", err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// In phase v every page takes its write v: direct in the first half and
	// buffered in the second when v is odd, the other way round when even.
	writer := func(qid int, direct bool) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			page := make([]byte, ps)
			for v := uint64(1); v <= phases; v++ {
				lo := uint64(0)
				if (v%2 == 1) != direct {
					lo = pages / 2
				}
				for l := lo; l < lo+pages/2; l++ {
					for acks[l] != v-1 {
						p.Sleep(2 * time.Microsecond)
					}
					stampPage(page, l, v)
					if err := f.Write(p, qid, l*ps, page, direct); err != nil {
						t.Errorf("write lpn %d v%d (direct %v): %v", l, v, direct, err)
						return
					}
					acks[l] = v
				}
			}
		}
	}
	writing := 2
	done := func(fn func(p *sim.Proc)) func(p *sim.Proc) {
		return func(p *sim.Proc) { fn(p); writing-- }
	}
	passes, widest := 0, 0
	flusher := func(p *sim.Proc) {
		for writing > 0 {
			if n, _ := ctl.FlushPass(p, 256); n > 0 {
				passes++
				widest = max(widest, n)
			}
			p.Sleep(5 * time.Microsecond)
		}
	}
	sys.Drive(done(writer(1, false)), done(writer(2, true)), flusher)
	if widest < 16 {
		t.Fatalf("the widest flush pass wrote %d pages back: the test exercised no wide window", widest)
	}

	sys.Drive(func(p *sim.Proc) {
		if err := f.Sync(p, 0); err != nil {
			t.Errorf("fsync: %v", err)
			return
		}
		page := make([]byte, ps)
		for _, direct := range []bool{true, false} {
			for l := uint64(0); l < pages; l++ {
				if _, err := f.ReadInto(p, 3, l*ps, page, direct); err != nil {
					t.Errorf("read back lpn %d (direct %v): %v", l, direct, err)
				} else if err := checkStamps(page, l, acks[l], acks[l]); err != nil {
					t.Errorf("read back (direct %v): %v", direct, err)
				}
			}
		}
		if probs := kvfs.Fsck(sys.KVCluster).Problems; len(probs) > 0 {
			t.Errorf("fsck: %v", probs)
		}
	})
	t.Logf("%d flush passes wrote pages back, the widest %d", passes, widest)
}
