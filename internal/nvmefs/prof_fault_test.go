package nvmefs

import (
	"testing"

	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// TestBackoffAttributedAsWait pins the recovery-path attribution contract:
// when a dropped completion forces a timeout+retry, the exponential backoff
// sleep shows up in the profile as wait time under the "nvmefs.backoff"
// kind — recovery stalls are measurable, not silently folded into "other" —
// and the span still sums exactly to its duration.
func TestBackoffAttributedAsWait(t *testing.T) {
	o := obs.New()

	mcfg := model.Default()
	mcfg.Obs = o
	m := newTestMachine(t, mcfg)
	vc := newVirtualClient()
	d := NewDriver(m, faultCfg(), func(p *sim.Proc, req Request) Response {
		return vc.handle(p, req)
	})
	d.SetFaults(fault.New(m.Eng, []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 1, Count: 1},
	}))

	m.Eng.Go("app", func(p *sim.Proc) {
		s := o.Begin(p, "nvmefs.op.write")
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: []byte("retried")})
		s.End(p)
		if !w.OK() {
			t.Errorf("write under dropped completion = %+v", w)
		}
	})
	m.Eng.Run()
	if d.Timeouts != 1 || d.Retries != 1 {
		t.Fatalf("timeouts=%d retries=%d, want 1/1", d.Timeouts, d.Retries)
	}

	pr := prof.Analyze(o.Tracer().Export(m.Eng.Now()))
	if errs := pr.CheckInvariant(); len(errs) > 0 {
		t.Fatalf("attribution invariant violated under faults: %v", errs[0])
	}
	if pr.Anomalies != 0 {
		t.Fatalf("%d attribution anomalies (want 0)", pr.Anomalies)
	}
	backoff := pr.WaitKinds["nvmefs.backoff"]
	if backoff <= 0 {
		t.Fatalf("nvmefs.backoff wait = %d ns, want > 0 (wait kinds: %v)", backoff, pr.WaitKinds)
	}
	// One retry sleeps exactly retryBase (first step of the exponential
	// ladder); the attribution must cover the whole sleep.
	if backoff < int64(retryBase) {
		t.Fatalf("nvmefs.backoff wait = %d ns, want >= retryBase %d ns", backoff, int64(retryBase))
	}
}
