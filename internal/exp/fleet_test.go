package exp

import (
	"encoding/json"
	"testing"
	"time"
)

// tinyFleetConfig is a scaled-down fleet that keeps the test fast while
// still exercising every phase, the prefill, and the scheduler budgets.
func tinyFleetConfig() FleetConfig {
	return FleetConfig{
		Tenants:         4,
		VictimProcs:     8,
		AggressorProcs:  12,
		Warmup:          1 * time.Millisecond,
		Measure:         4 * time.Millisecond,
		Seed:            7,
		AggMaxInflight:  2,
		AggBandwidthBps: 400 << 20,
		AggMaxQueued:    16,
	}
}

// TestFleetDeterminism: two same-seed runs must produce byte-identical phase
// digests — the whole experiment runs in virtual time on the deterministic
// engine, so BENCH_8.json regenerates exactly.
func TestFleetDeterminism(t *testing.T) {
	marshal := func() []byte {
		run, err := RunFleet(tinyFleetConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(run.Phases)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if string(a) != string(b) {
		t.Errorf("same-seed fleet digests differ:\n%s\n%s", a, b)
	}
}

// TestFleetPhaseShape checks the experiment's structure: three phases in
// order, victims measured in all of them, aggressor traffic only in the
// contended ones, and budgets enforced only under drr.
func TestFleetPhaseShape(t *testing.T) {
	run, err := RunFleet(tinyFleetConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(run.Phases))
	}
	for i, name := range []string{"baseline", "fifo", "drr"} {
		ph := run.Phases[i]
		if ph.Name != name {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, name)
		}
		if ph.VictimOps == 0 || ph.VictimP999Ns == 0 {
			t.Errorf("phase %q measured no victim ops (%+v)", name, ph)
		}
		if len(ph.Tenants) != run.Cfg.Tenants {
			t.Errorf("phase %q has %d tenant rows, want %d", name, len(ph.Tenants), run.Cfg.Tenants)
		}
		for _, ts := range ph.Tenants {
			if ts.Errors != 0 {
				t.Errorf("phase %q tenant %d saw %d errors", name, ts.Tenant, ts.Errors)
			}
		}
	}
	if ops := run.Phase("baseline").AggressorOps; ops != 0 {
		t.Errorf("baseline phase has %d aggressor ops, want 0", ops)
	}
	if run.Phase("fifo").AggressorOps == 0 || run.Phase("drr").AggressorOps == 0 {
		t.Error("contended phases measured no aggressor ops")
	}
	if shed := run.Phase("fifo").AggressorShed; shed != 0 {
		t.Errorf("fifo phase shed %d commands — the scheduler-off arm must not enforce budgets", shed)
	}
	if run.T == nil || run.Obs == nil {
		t.Error("drr-phase telemetry not carried out of the run")
	}
}
