package whatif

import (
	"bytes"
	"encoding/json"
	"testing"

	"dpc/internal/obs"
)

// The deliberate-skew canary: feed the cross-check a profile that claims the
// cpu component is 1% of the critical path, then report a 30% gain from
// halving cpu cost. The check must flag it — this is the attribution-bug
// detector the sweep leans on, so it has to demonstrably fire.
func TestCrossCheckCanaryFires(t *testing.T) {
	prm, ok := Lookup("cpu.cost_scale")
	if !ok {
		t.Fatal("cpu.cost_scale not registered")
	}
	skewed := map[string]float64{"cpu": 0.01, "wait": 0.10}
	cc := crossCheck(prm, 0.5, 0.30, skewed, map[string]float64{})
	if cc.OK {
		t.Errorf("skewed shares (cpu 1%%, gain 30%%) passed the cross-check: bound %v", cc.Bound)
	}

	// Sanity arm: an honest profile (cpu 60%) absorbs the same gain.
	honest := map[string]float64{"cpu": 0.60, "wait": 0.10}
	cc = crossCheck(prm, 0.5, 0.30, honest, map[string]float64{})
	if !cc.OK {
		t.Errorf("honest shares flagged: gain %v bound %v", cc.Gain, cc.Bound)
	}
}

// Queue waits conceal the dialed component's time in *other ops'* service,
// so the bound must grow with the wait share (the ramp workload caught this
// in anger: 49%% slot waits, legitimate 15%% cpu gain, naive bound 13.6%%).
func TestCrossCheckQueueWaitTerm(t *testing.T) {
	prm, _ := Lookup("cpu.cost_scale")
	// Ramp-shaped profile: cpu 17%, wait 50% (none of it cpu-layer).
	shares := map[string]float64{"cpu": 0.172, "wait": 0.496, "other": 0.308}
	cc := crossCheck(prm, 0.5, 0.154, shares, map[string]float64{"nvmefs": 0.489})
	if !cc.OK {
		t.Errorf("ramp-shaped legitimate gain flagged: gain %v bound %v", cc.Gain, cc.Bound)
	}
}

// One compact sweep, run twice: byte-identical reports (the BENCH_10 gate
// depends on it), a positive dma_setup payoff on the DPU-class small-I/O
// probe, no cross-check violations, and the whatif.* gauges registered.
func TestRunSmallIODeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cfg := Config{Workloads: []string{"smallio"}, Factors: []float64{0.5}}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	cfg.Obs = o
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("reports differ across runs:\n%s\n%s", b1, b2)
	}

	if r1.Violations != 0 {
		t.Errorf("violations = %d, want 0 (invariant errs: %v)", r1.Violations, r1.InvariantErrs)
	}
	wr := r1.Workloads[0]
	if wr.Ops == 0 || wr.BaselineNs <= 0 {
		t.Fatalf("empty baseline: %+v", wr)
	}
	var dmaGain float64
	for _, c := range wr.Curves {
		if c.Param == "pcie.dma_setup" {
			dmaGain = 1 - float64(c.Points[0].ElapsedNs)/float64(wr.BaselineNs)
		}
	}
	// The probe models a DPU-class DMA engine (1.5µs setup) precisely so
	// that dialing setup matters; a flat curve means the override never
	// reached the pcie layer.
	if dmaGain <= 0.01 {
		t.Errorf("halving dma setup gained %.4f, want > 1%%", dmaGain)
	}

	// The gauges land under the whatif.* namespace dpclint sanctions.
	snap := o.Registry().Snapshot(0)
	if _, ok := snap.Gauges["whatif.smallio.pcie.dma_setup.halving_gain"]; !ok {
		keys := make([]string, 0, len(snap.Gauges))
		for k := range snap.Gauges {
			keys = append(keys, k)
		}
		t.Errorf("missing whatif halving-gain gauge; have %v", keys)
	}
}

// Baseline shares must sum to ~1: they are shares of the same critical-path
// total the cross-check bound divides by.
func TestSharesSumToOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	wl, _ := LookupWorkload("smallio")
	shares, _, invErrs, err := profileShares(wl, wl.base(Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	if len(invErrs) != 0 {
		t.Fatalf("invariant errors: %v", invErrs)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
}
