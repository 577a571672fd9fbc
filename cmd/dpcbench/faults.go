package main

import (
	"fmt"
	"math/rand"
	"time"

	"dpc"
	"dpc/internal/fault"
	"dpc/internal/sim"
	"dpc/internal/world"
)

// runFaultScenario is the -faults workload: the buffered KVFS reference mix
// run under the canned fault schedule (dropped completions, corrupt
// SQEs/CQEs, worker crashes, a controller freeze, backend flush/fill
// errors). Every operation must still succeed — the point of the report is
// what the recovery machinery had to do to make that true: timeouts,
// retries, dedup replays, resets, degraded-mode entries. The schedule and
// the workload are fixed, so the whole report is deterministic.
func runFaultScenario() error {
	sys := world.NewSystem(func(o *dpc.Options) { o.Faults = fault.CannedSchedule() })
	cl := sys.KVFSClient()

	payload := make([]byte, 256*1024)
	rand.New(rand.NewSource(42)).Read(payload)
	var moved int64
	var opErr error
	var elapsed sim.Time
	start := sys.Now()
	sys.Go(func(p *sim.Proc) {
		defer func() { elapsed = p.Now() - start }()
		// Several files, interleaved buffered writes / read-backs / fsyncs:
		// enough traffic that every rule in the canned schedule fires.
		files := make([]*dpc.File, 4)
		for i := range files {
			f, err := cl.Create(p, 0, fmt.Sprintf("/fault%d.dat", i))
			if err != nil {
				opErr = err
				return
			}
			files[i] = f
		}
		for round := 0; round < 72; round++ {
			for i, f := range files {
				direct := (round+i)%3 == 0
				if err := f.Write(p, 0, uint64(round*4096), payload[:32*1024], direct); err != nil {
					opErr = fmt.Errorf("write round %d file %d: %w", round, i, err)
					return
				}
				moved += 32 * 1024
				// Direct reads bypass the host cache, so every round keeps
				// commands flowing through the injected protocol path.
				data, err := f.Read(p, 0, uint64(round*4096), 32*1024, (round+i)%2 == 0)
				if err != nil {
					opErr = fmt.Errorf("read round %d file %d: %w", round, i, err)
					return
				}
				moved += int64(len(data))
			}
			if err := files[round%len(files)].Sync(p, 0); err != nil {
				opErr = fmt.Errorf("fsync round %d: %w", round, err)
				return
			}
		}
	})
	sys.RunFor(5 * time.Second)
	defer sys.Shutdown()
	if opErr != nil {
		return fmt.Errorf("operation failed under injection: %w", opErr)
	}

	secs := float64(elapsed) / float64(time.Second)
	fmt.Printf("fault scenario: %.1f MB moved in %.3f s virtual (%.1f MB/s) — all ops OK\n",
		float64(moved)/1e6, secs, float64(moved)/1e6/secs)
	fmt.Println("injected faults:")
	for _, kc := range sys.Faults.Counts() {
		fmt.Printf("  %-18s %d\n", kc.Kind, kc.N)
	}
	d := sys.Driver
	fmt.Println("driver recovery:")
	fmt.Printf("  timeouts=%d retries=%d resets=%d dedup_hits=%d\n",
		d.Timeouts, d.Retries, d.Resets, d.DedupHits)
	fmt.Printf("  dropped_cqes=%d unknown_cqes=%d stale_cqes=%d corrupt_sqes=%d worker_crashes=%d\n",
		d.DroppedCompletions, d.UnknownCompletions, d.StaleCompletions, d.CorruptSQEs, d.WorkerCrashes)
	if ctl := sys.KVFSService().Ctl; ctl != nil {
		fmt.Println("cache ctl:")
		fmt.Printf("  flush_errs=%d fill_errs=%d degraded_entries=%d degraded_exits=%d degraded_now=%v\n",
			ctl.FlushErrs.Total(), ctl.FillErrs.Total(),
			ctl.DegradedEntries.Total(), ctl.DegradedExits.Total(), ctl.Degraded())
	}
	return nil
}
