package whatif

import (
	"testing"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// profileReport runs one workload at a counterfactual parameter point with
// obs attached and returns the full critical-path report — the
// prof.Diff input for "what regressed between these two worlds".
func profileReport(workload string, ov Overrides) (*prof.Report, error) {
	wl, _ := LookupWorkload(workload)
	base, err := ov.Apply(wl.base(Defaults()))
	if err != nil {
		return nil, err
	}
	o := obs.New()
	r, err := wl.run(base, o)
	if err != nil {
		return nil, err
	}
	pr := prof.Analyze(o.Tracer().Export(sim.Time(r.EndNs)))
	return prof.BuildReport(pr, r.EndNs, o.Tracer().Dropped(), 0, 3), nil
}

// The PR's acceptance bar for the differential attributor: doubling the
// per-DMA setup cost is a known, synthetic regression whose time belongs to
// the dma component — the diff of the baseline and regressed profiles must
// blame dma for at least 90% of the positive per-op shift.
func TestDiffAttributesDMASetupRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	before, err := profileReport("smallio", nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := profileReport("smallio", Overrides{"pcie.dma_setup": 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := prof.Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}

	var op *prof.OpDiff
	for i := range d.Ops {
		if d.Ops[i].Op == OpSpan {
			op = &d.Ops[i]
		}
	}
	if op == nil {
		t.Fatalf("no %s op in diff: %+v", OpSpan, d.Ops)
	}
	if op.MeanDelta <= 0 {
		t.Fatalf("doubling dma setup did not slow the op: delta %d ns", op.MeanDelta)
	}
	if op.Top != "dma" {
		t.Errorf("top component %q, want dma (attr %v)", op.Top, op.Attr)
	}
	// "Within 10%": the dma shift accounts for >= 90% of the total positive
	// per-op shift. (Waits on the busier link may also grow; they are part
	// of the positive mass the 10% tolerance absorbs.)
	var positive int64
	for _, v := range op.Attr {
		if v > 0 {
			positive += v
		}
	}
	if dma := op.Attr["dma"]; float64(dma) < 0.9*float64(positive) {
		t.Errorf("dma shift %d ns is %.1f%% of positive delta %d ns, want >= 90%%",
			dma, 100*float64(dma)/float64(positive), positive)
	}
}
