package check

import (
	"testing"

	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/prof"
)

// TestTortureAttributionInvariant replays the differential torture trace
// through profiled worlds and asserts the profiler's core contract on the
// resulting span forest: every span's component attribution sums exactly to
// its duration, with zero anomalies. The fault variant runs the same check
// through injected drops, timeouts and resets — retry backoff and recovery
// paths must account their time just as exactly as the happy path.
func TestTortureAttributionInvariant(t *testing.T) {
	cases := []struct {
		stack  string
		faults bool
	}{
		{"kvfs-cache", false},
		{"kvfs-cache", true},
		{"dfs-dpc", true},
		{"kvfs-inline-wal", true},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.stack
		if tc.faults {
			name += "-faults"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const seed = 1
			o := obs.New()
			var rules []fault.Rule
			if tc.faults {
				rules = fault.TortureSchedule(seed)
			}
			w, err := newDPCWorldNamed(tc.stack, "cannot carry an obs handle", rules, o)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			trace := GenTrace(seed, 300, w.Caps())
			if fail := runTraceOn(w, seed, trace); fail != nil {
				t.Fatalf("diverged from oracle under profiling: %v", fail)
			}

			pr := prof.Analyze(o.Tracer().Export(w.Now()))
			if len(pr.Spans) == 0 {
				t.Fatal("profiled torture run produced no spans")
			}
			if errs := pr.CheckInvariant(); len(errs) > 0 {
				max := len(errs)
				if max > 5 {
					max = 5
				}
				for _, e := range errs[:max] {
					t.Error(e)
				}
				t.Fatalf("%d spans violate attribution == duration", len(errs))
			}
			if pr.Anomalies != 0 {
				t.Fatalf("%d attribution anomalies (want 0)", pr.Anomalies)
			}
		})
	}
}
