package prof

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

func iv(c obs.Component, kind string, lo, hi int64) obs.Interval {
	return obs.Interval{Comp: c, Kind: kind, Start: sim.Time(lo), End: sim.Time(hi)}
}

// TestAttributionSumsToDuration: intervals + same-process children + gaps
// decompose exactly, residual landing in "other".
func TestAttributionSumsToDuration(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "root", Proc: "host", Start: 0, End: 100, Intervals: []obs.Interval{
			iv(obs.CompCPU, "cpu.host", 0, 20),
			iv(obs.CompWait, "nvmefs.sq", 70, 90),
		}},
		{ID: 2, Parent: 1, Name: "child", Proc: "host", Start: 25, End: 65, Intervals: []obs.Interval{
			iv(obs.CompDMA, "data-out", 30, 50),
		}},
	}
	pr := Analyze(spans)
	if errs := pr.CheckInvariant(); errs != nil {
		t.Fatalf("invariant violations: %v", errs)
	}
	root := pr.ByID[1]
	// Root self: cpu 20, wait 20, other = 100 - 40(child) - 40(ivs) = 20.
	if root.Self[obs.CompCPU] != 20 || root.Self[obs.CompWait] != 20 || root.Self[obs.CompOther] != 20 {
		t.Errorf("root self = %v", root.Self)
	}
	// Child: dma 20, other 20. Root total adds child.
	child := pr.ByID[2]
	if child.Total[obs.CompDMA] != 20 || child.Total[obs.CompOther] != 20 {
		t.Errorf("child total = %v", child.Total)
	}
	if got := root.Total.Sum(); got != 100 {
		t.Errorf("root total sum = %d, want 100", got)
	}
	if root.Total[obs.CompDMA] != 20 {
		t.Errorf("root total dma = %d, want 20 (from child)", root.Total[obs.CompDMA])
	}
	if pr.WaitKinds["nvmefs.sq"] != 20 {
		t.Errorf("wait kinds = %v", pr.WaitKinds)
	}
}

// TestAnomalyDetection: a child escaping its parent window flags the parent
// but keeps the sums exact.
func TestAnomalyDetection(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "root", Proc: "host", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "late", Proc: "host", Start: 40, End: 80},
	}
	pr := Analyze(spans)
	if pr.Anomalies != 1 {
		t.Fatalf("anomalies = %d, want 1", pr.Anomalies)
	}
	if !pr.ByID[1].Anomalous {
		t.Error("root should be flagged anomalous (child escapes window)")
	}
}

// TestCriticalPathSubstitution: a cross-process child is substituted into
// the parent's wait window, leaving only the uncovered edges as wait.
func TestCriticalPathSubstitution(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "submit", Proc: "host", Start: 0, End: 100, Intervals: []obs.Interval{
			iv(obs.CompCPU, "cpu.host", 0, 20),
			iv(obs.CompWait, "nvmefs.inflight", 20, 80),
			iv(obs.CompCPU, "cpu.host", 80, 100),
		}},
		{ID: 2, Parent: 1, Name: "tgt", Proc: "dpu", Start: 30, End: 70, Intervals: []obs.Interval{
			iv(obs.CompCPU, "cpu.dpu", 30, 70),
		}},
	}
	pr := Analyze(spans)
	segs := pr.CriticalPath(pr.ByID[1])
	want := []Segment{
		{Span: "submit", Proc: "host", Comp: "cpu", Kind: "cpu.host", Ns: 20},
		{Span: "submit", Proc: "host", Comp: "wait", Kind: "nvmefs.inflight", Ns: 10},
		{Span: "tgt", Proc: "dpu", Comp: "cpu", Kind: "cpu.dpu", Ns: 40},
		{Span: "submit", Proc: "host", Comp: "wait", Kind: "nvmefs.inflight", Ns: 10},
		{Span: "submit", Proc: "host", Comp: "cpu", Kind: "cpu.host", Ns: 20},
	}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("critical path = %+v\nwant %+v", segs, want)
	}
	attr := CPAttr(segs)
	if attr.Sum() != 100 {
		t.Errorf("CP attr sum = %d, want root duration 100", attr.Sum())
	}
	if attr[obs.CompCPU] != 80 || attr[obs.CompWait] != 20 {
		t.Errorf("CP attr = %v, want cpu=80 wait=20", attr)
	}
}

// TestConsumedCursor: one worker overlapping two wait windows is split
// across them without double-counting.
func TestConsumedCursor(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "op", Proc: "host", Start: 0, End: 100, Intervals: []obs.Interval{
			iv(obs.CompWait, "poll", 10, 40),
			iv(obs.CompWait, "irq", 60, 90),
		}},
		{ID: 2, Parent: 1, Name: "worker", Proc: "dpu", Start: 0, End: 100, Intervals: []obs.Interval{
			iv(obs.CompSSD, "ssd.read", 0, 100),
		}},
	}
	pr := Analyze(spans)
	segs := pr.CriticalPath(pr.ByID[1])
	var workerNs, total int64
	for _, sg := range segs {
		if sg.Span == "worker" {
			workerNs += sg.Ns
		}
		total += sg.Ns
	}
	if total != 100 {
		t.Errorf("CP total = %d, want 100", total)
	}
	// Worker substitutes [10,40) and [60,90): 60ns, never more.
	if workerNs != 60 {
		t.Errorf("worker on CP = %dns, want 60", workerNs)
	}
}

// TestCriticalPathScopedToTree: a concurrent span from a different request
// must not be substituted into this root's wait window.
func TestCriticalPathScopedToTree(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "opA", Proc: "hostA", Start: 0, End: 100, Intervals: []obs.Interval{
			iv(obs.CompWait, "poll", 0, 100),
		}},
		{ID: 2, Name: "opB", Proc: "hostB", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "workerB", Proc: "dpu", Start: 10, End: 90, Intervals: []obs.Interval{
			iv(obs.CompSSD, "ssd.write", 10, 90),
		}},
	}
	pr := Analyze(spans)
	segs := pr.CriticalPath(pr.ByID[1])
	want := []Segment{{Span: "opA", Proc: "hostA", Comp: "wait", Kind: "poll", Ns: 100}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("critical path leaked another request's worker: %+v", segs)
	}
}

// runProfScenario drives a small cross-process workload under obs and
// returns the obs handle plus the end time.
func runProfScenario(seed int64) (*obs.Obs, sim.Time) {
	o := obs.New()
	eng := sim.NewEngine(seed)
	for i := 0; i < 3; i++ {
		eng.Go("host", func(p *sim.Proc) {
			op := o.Begin(p, "op")
			t0 := p.Now()
			p.Sleep(100 * time.Nanosecond)
			o.Attr(p, obs.CompCPU, "cpu.host", t0, p.Now())
			done := sim.NewCond(eng, "done")
			eng.Go("dpu", func(wp *sim.Proc) {
				w := o.BeginChild(wp, op, "work")
				w0 := wp.Now()
				wp.Sleep(70 * time.Nanosecond)
				o.Attr(wp, obs.CompSSD, "ssd.read", w0, wp.Now())
				w.End(wp)
				done.Broadcast()
			})
			t1 := p.Now()
			done.Wait(p)
			o.Attr(p, obs.CompWait, "poll", t1, p.Now())
			op.End(p)
		})
	}
	eng.Run()
	return o, eng.Now()
}

// TestLiveExportInvariant: attribution over a real engine run sums exactly
// and the critical path substitutes the DPU work.
func TestLiveExportInvariant(t *testing.T) {
	o, now := runProfScenario(1)
	pr := Analyze(o.Tracer().Export(now))
	if errs := pr.CheckInvariant(); errs != nil {
		t.Fatalf("invariant violations: %v", errs)
	}
	if pr.Anomalies != 0 {
		t.Fatalf("anomalies = %d, want 0", pr.Anomalies)
	}
	rep := BuildReport(pr, int64(now), 0, 0, 5)
	op := rep.Op("op")
	if op == nil {
		t.Fatal("missing op stats")
	}
	if op.Attr["ssd"] == 0 {
		t.Error("critical path should surface DPU ssd time inside the host wait")
	}
}

// TestPerfettoRoundTrip: parsing the exported trace reproduces the live
// export, including attributed intervals.
func TestPerfettoRoundTrip(t *testing.T) {
	o, now := runProfScenario(1)
	live := o.Tracer().Export(now)
	parsed, err := ParsePerfetto(o.Tracer().Perfetto(now))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, parsed) {
		t.Errorf("round trip mismatch:\nlive   %+v\nparsed %+v", live, parsed)
	}
}

// TestReportDeterminism: identical seeds yield byte-identical report JSON,
// text, and folded stacks.
func TestReportDeterminism(t *testing.T) {
	render := func() ([]byte, string, []byte) {
		o, now := runProfScenario(7)
		pr := Analyze(o.Tracer().Export(now))
		rep := BuildReport(pr, int64(now), 0, 0, 3)
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, rep.Text(), FoldedStacks(pr)
	}
	js1, txt1, f1 := render()
	js2, txt2, f2 := render()
	if !bytes.Equal(js1, js2) {
		t.Error("report JSON differs across identical runs")
	}
	if txt1 != txt2 {
		t.Error("report text differs across identical runs")
	}
	if !bytes.Equal(f1, f2) {
		t.Error("folded stacks differ across identical runs")
	}
	if len(f1) == 0 {
		t.Error("folded stacks empty")
	}
}

// TestFoldedStacksShape: stacks carry the span hierarchy and comp:kind
// leaves, counted in nanoseconds.
func TestFoldedStacksShape(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "root", Proc: "host", Start: 0, End: 100, Intervals: []obs.Interval{
			iv(obs.CompCPU, "cpu.host", 0, 30),
		}},
		{ID: 2, Parent: 1, Name: "child", Proc: "host", Start: 40, End: 90, Intervals: []obs.Interval{
			iv(obs.CompDMA, "data-out", 40, 60),
		}},
	}
	got := string(FoldedStacks(Analyze(spans)))
	want := "root;child;dma:data-out 20\n" +
		"root;child;other 30\n" +
		"root;cpu:cpu.host 30\n" +
		"root;other 20\n"
	if got != want {
		t.Errorf("folded stacks = %q, want %q", got, want)
	}
}
