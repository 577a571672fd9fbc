package dpc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// faultMixRun drives a cached KVFS mix on a system with (or without) the
// canned fault schedule and an obs hub, returning the full metrics snapshot
// plus a counter fingerprint of the recovery machinery.
func faultMixRun(t *testing.T, withFaults bool) (snapshot string, fingerprint string) {
	t.Helper()
	o := obs.New()
	opts := DefaultOptions()
	opts.Model.Obs = o
	if withFaults {
		opts.Faults = fault.CannedSchedule()
	}
	sys := New(opts)
	cl := sys.KVFSClient()
	payload := make([]byte, 128*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sys.Go(func(p *sim.Proc) {
		for fi := 0; fi < 3; fi++ {
			f, err := cl.Create(p, 0, fmt.Sprintf("/d%d", fi))
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			for round := 0; round < 16; round++ {
				if err := f.Write(p, 0, uint64(round*8192), payload[:16*1024], round%2 == 0); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := f.Read(p, 0, uint64(round*8192), 16*1024, round%3 == 0); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
			if err := f.Sync(p, 0); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	})
	sys.RunFor(2 * time.Second)
	js, err := o.SnapshotJSON(sys.Now())
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	d := sys.Driver
	fp := fmt.Sprintf("timeouts=%d retries=%d resets=%d dedup=%d dropped=%d unknown=%d corrupt=%d crashes=%d now=%v",
		d.Timeouts, d.Retries, d.Resets, d.DedupHits, d.DroppedCompletions,
		d.UnknownCompletions, d.CorruptSQEs, d.WorkerCrashes, sys.Now())
	sys.StopDaemons()
	sys.Shutdown()
	return string(js), fp
}

// TestFaultRunsDeterministic: the same fault schedule against the same
// workload must produce byte-identical metrics snapshots and recovery
// counters — injected faults ride the virtual clock and op counters, never
// wall-clock or map order.
func TestFaultRunsDeterministic(t *testing.T) {
	poisonPool(t)
	s1, f1 := faultMixRun(t, true)
	s2, f2 := faultMixRun(t, true)
	if f1 != f2 {
		t.Fatalf("recovery counters diverged:\n  a: %s\n  b: %s", f1, f2)
	}
	if s1 != s2 {
		t.Fatal("metrics snapshots of identical fault runs differ")
	}
	if strings.Contains(f1, "retries=0 ") {
		t.Fatalf("canned schedule injected nothing worth retrying: %s", f1)
	}
}

// TestInjectionOffLeavesMetricsClean: with no fault schedule the snapshot
// must contain no fault/recovery metric keys at all (they are registered
// lazily, only when an injector attaches) and the run itself must be
// deterministic. This is what keeps fault-free benchmark output
// byte-identical to builds that predate the fault framework.
func TestInjectionOffLeavesMetricsClean(t *testing.T) {
	poisonPool(t)
	s1, f1 := faultMixRun(t, false)
	s2, f2 := faultMixRun(t, false)
	if s1 != s2 || f1 != f2 {
		t.Fatal("fault-free runs non-deterministic")
	}
	for _, key := range []string{"fault.injected", "nvmefs.driver.timeouts", "nvmefs.driver.retries",
		"nvmefs.driver.dedup_hits", "cache.ctl.flush_errs", "cache.ctl.degraded"} {
		if strings.Contains(s1, key) {
			t.Errorf("fault metric %q registered on a fault-free run", key)
		}
	}
	if !strings.Contains(f1, "timeouts=0 retries=0 resets=0") {
		t.Fatalf("recovery machinery ran without an injector: %s", f1)
	}
}
