package dpc

import (
	"fmt"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// TestFsyncProfileInvariant profiles the WAL group-commit path under
// concurrent fsyncs and checks the attribution invariant over the resulting
// span forest: every span's child and component time must fit inside its
// own duration. The group-commit leader/follower split is the interesting
// case — a follower's fsync span covers a wait on the leader's commit, so a
// double-charge bug (charging the shared device write to every waiter)
// shows up here and nowhere in the single-writer tests. The same goes for the
// must-settle park: it happens on a flush-window worker, a third process.
func TestFsyncProfileInvariant(t *testing.T) {
	const (
		workers = 4
		rounds  = 12 // past the flush daemon's first pass (2 ms), so fsyncs meet its write-backs
		burst   = 8192
	)
	o := obs.New()
	opts := DefaultOptions()
	opts.Model.Obs = o
	opts.WAL.Enabled = true
	sys := New(opts)

	done := 0
	fsyncs := 0
	for w := 0; w < workers; w++ {
		w := w
		sys.Go(func(p *sim.Proc) {
			defer func() { done++ }()
			cl := sys.KVFSClient()
			f, err := cl.Create(p, 0, fmt.Sprintf("/prof-fsync-w%d", w))
			if err != nil {
				t.Errorf("create w%d: %v", w, err)
				return
			}
			buf := make([]byte, burst)
			for i := range buf {
				buf[i] = byte(i*11 + w)
			}
			for r := 0; r < rounds; r++ {
				if err := f.Write(p, 0, uint64(r)*burst, buf, false); err != nil {
					t.Errorf("write w%d: %v", w, err)
					return
				}
				if err := f.Sync(p, 0); err != nil {
					t.Errorf("sync w%d: %v", w, err)
					return
				}
				fsyncs++
			}
		})
	}
	for i := 0; done != workers; i++ {
		if i > 1<<12 {
			t.Fatalf("stalled with %d/%d workers done", done, workers)
		}
		sys.RunFor(10 * time.Millisecond)
	}
	sys.StopDaemons()
	now := sys.Now()
	snap := o.Registry().Snapshot(now)
	sys.Shutdown()

	if fsyncs != workers*rounds {
		t.Fatalf("fsyncs = %d, want %d", fsyncs, workers*rounds)
	}
	// Group commit must actually have amortized barriers, or the
	// leader/follower shape under test never existed.
	commits := snap.Counters["wal.commits"]
	if commits <= 0 || commits >= int64(fsyncs) {
		t.Fatalf("wal.commits = %d over %d fsyncs: no group commit happened", commits, fsyncs)
	}

	spans := o.Tracer().Export(now)
	if o.Tracer().Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; invariant check would be partial", o.Tracer().Dropped())
	}
	pr := prof.Analyze(spans)
	for _, err := range pr.CheckInvariant() {
		t.Errorf("attribution invariant: %v", err)
	}

	// The fsync roots must be present and their critical paths must charge
	// the SSD component somewhere: every group pays one device write + one
	// barrier, and at least the leaders' paths cross it.
	fsyncRoots := 0
	var ssdNs, settleNs int64
	for _, root := range pr.Roots {
		if root.Data.Name != "client.fsync" {
			continue
		}
		fsyncRoots++
		for _, seg := range pr.CriticalPath(root) {
			if seg.Comp == "ssd" {
				ssdNs += seg.Ns
			}
			if seg.Kind == "cache.settle" {
				settleNs += seg.Ns
			}
		}
	}
	if fsyncRoots != fsyncs {
		t.Errorf("client.fsync roots = %d, want %d", fsyncRoots, fsyncs)
	}
	if ssdNs == 0 {
		t.Error("no ssd time on any fsync critical path; WAL write/barrier unattributed")
	}
	// An fsync that meets an entry the flush daemon is writing back parks in
	// Ctl.settle, on a flush-window worker; the park must show on the fsync's
	// own critical path as a named wait, not vanish into cache.flush_join.
	if settleNs == 0 {
		t.Errorf("no cache.settle wait on any fsync critical path (wait kinds over the trace: %v)", pr.WaitKinds)
	}
}
