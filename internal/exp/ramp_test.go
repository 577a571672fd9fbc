package exp

import (
	"bytes"
	"testing"
)

// TestRampDeterministicAndBurns runs the staged ramp twice and checks the
// two contracts BENCH_7 depends on: identical arguments produce
// byte-identical timeline exports, and the final oversubscribed stage burns
// the default SLO while the early stages meet it.
func TestRampDeterministicAndBurns(t *testing.T) {
	if testing.Short() {
		t.Skip("ramp run in -short mode")
	}
	r1, err := RunRamp(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunRamp(nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.T.TimelineJSON(r1.Now)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.T.TimelineJSON(r2.Now)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("identical ramp runs exported different timeline bytes")
	}

	obj := r1.T.Objectives()[0]
	if obj.Violations() == 0 {
		t.Error("ramp never burned its SLO; the final stage should oversubscribe")
	}
	if obj.Violations() >= obj.Windows() {
		t.Error("every window burned; the light-load stages should meet the SLO")
	}
	first, last := r1.Stages[0], r1.Stages[len(r1.Stages)-1]
	if first.Ops == 0 || last.Ops == 0 {
		t.Fatalf("stage op counts: first=%d last=%d", first.Ops, last.Ops)
	}
	if last.P99Ns <= first.P99Ns {
		t.Errorf("stage p99 did not climb under load: first=%dns last=%dns",
			first.P99Ns, last.P99Ns)
	}
}
