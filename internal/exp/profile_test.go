package exp

import (
	"bytes"
	"testing"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/world"
)

func analyzeReference(t *testing.T) (*prof.Profile, *prof.Report) {
	t.Helper()
	o := obs.New()
	ref, err := ProfiledReference(o)
	if err != nil {
		t.Fatal(err)
	}
	now := ref.Now
	pr := prof.Analyze(o.Tracer().Export(now))
	rep := prof.BuildReport(pr, int64(now), o.Tracer().Dropped(), o.Tracer().DroppedIntervals(), 10)
	return pr, rep
}

// TestProfiledReferenceAttribution pins the paper's Figure 2(b)/4 story on
// the reference 8K workload: virtio-fs loses a strictly larger share of its
// critical path to DMA+MMIO+queueing than nvme-fs (the 11-vs-4 DMA walk),
// while nvme-fs is bound by SSD service time — its largest single
// component is the device, not the transport.
func TestProfiledReferenceAttribution(t *testing.T) {
	pr, rep := analyzeReference(t)

	if errs := pr.CheckInvariant(); len(errs) > 0 {
		t.Fatalf("%d spans violate attribution == duration; first: %v", len(errs), errs[0])
	}
	if pr.Anomalies != 0 {
		t.Fatalf("%d attribution anomalies (want 0)", pr.Anomalies)
	}

	nv, vi := rep.Group("nvmefs"), rep.Group("virtio")
	if nv == nil || vi == nil {
		t.Fatalf("missing transport groups: nvmefs=%v virtio=%v", nv, vi)
	}
	if !(vi.DMAWaitShare > nv.DMAWaitShare) {
		t.Errorf("virtio-fs dma+wait share %.4f not strictly above nvme-fs %.4f",
			vi.DMAWaitShare, nv.DMAWaitShare)
	}

	// nvme-fs is SSD-service-bound: device time dominates every other
	// component of its critical path.
	ssd := nv.Attr["ssd"]
	for comp, ns := range nv.Attr {
		if comp != "ssd" && ns >= ssd {
			t.Errorf("nvme-fs component %q (%d ns) >= ssd (%d ns); not SSD-service-bound", comp, ns, ssd)
		}
	}

	// Both transports moved the same payloads over the same device, so the
	// DMA gap is the transport's doing: virtio's 11-step walk posts more
	// descriptor/payload DMA than nvme-fs's 4-step walk.
	if vi.Attr["dma"] <= nv.Attr["dma"] {
		t.Errorf("virtio dma %d ns not above nvme-fs dma %d ns", vi.Attr["dma"], nv.Attr["dma"])
	}
}

// TestProfiledReferenceDeterminism runs the reference workload twice and
// requires byte-identical JSON reports and folded stacks — the profiler is
// pure observation over a deterministic simulation, so any divergence is a
// nondeterminism bug in the instrumentation itself.
func TestProfiledReferenceDeterminism(t *testing.T) {
	run := func() ([]byte, []byte) {
		pr, rep := analyzeReference(t)
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j, prof.FoldedStacks(pr)
	}
	j1, f1 := run()
	j2, f2 := run()
	if !bytes.Equal(j1, j2) {
		t.Error("profile report JSON differs across identical runs")
	}
	if !bytes.Equal(f1, f2) {
		t.Error("folded stacks differ across identical runs")
	}
}

// TestReferenceZeroProbeEffect runs the reference workload with no hub and
// with an attached one: observation records spans, intervals and counters
// but must not move virtual time, so both runs end at the same instant and
// see the same walks — 4 DMAs per 8 KB op on nvme-fs, 11 on virtio-fs.
func TestReferenceZeroProbeEffect(t *testing.T) {
	off, err := ProfiledReference(nil)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	on, err := ProfiledReference(o)
	if err != nil {
		t.Fatal(err)
	}
	if off.Now != on.Now {
		t.Errorf("final virtual time: %v unobserved, %v observed", off.Now, on.Now)
	}
	reg := o.Registry()
	for _, c := range []struct {
		name         string
		off, on      world.Walk
		wantW, wantR int64
	}{
		{"nvmefs", off.Nvme, on.Nvme, 4, 4},
		{"virtiofs", off.Virtio, on.Virtio, 11, 11},
	} {
		ow, or := c.off.DMAs()
		nw, nr := c.on.DMAs()
		if ow != c.wantW || or != c.wantR || nw != c.wantW || nr != c.wantR {
			t.Errorf("%s walk DMAs (write/read): unobserved %d/%d, observed %d/%d, want %d/%d",
				c.name, ow, or, nw, nr, c.wantW, c.wantR)
		}
		for op, want := range map[string]int64{"write": c.wantW, "read": c.wantR} {
			if got := reg.CounterValue("trace." + c.name + "." + op + ".dmas"); got != want {
				t.Errorf("trace.%s.%s.dmas = %d, want %d", c.name, op, got, want)
			}
		}
	}
}
