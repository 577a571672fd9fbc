package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// TestAttachRequiresObs checks the strictly-opt-in contract: a disabled hub
// cannot grow a telemetry pipeline.
func TestAttachRequiresObs(t *testing.T) {
	var o *obs.Obs
	if _, err := Attach(sim.NewEngine(1), o, Config{}); err == nil {
		t.Error("Attach on a nil hub succeeded")
	}
}

// TestAttachRejectsBadSLO checks spec errors surface at attach time, not
// mid-run.
func TestAttachRejectsBadSLO(t *testing.T) {
	if _, err := Attach(sim.NewEngine(1), obs.New(), Config{SLOs: []string{"nope"}}); err == nil {
		t.Error("Attach accepted a malformed SLO spec")
	}
}

// attachSampler attaches a pipeline with the given interval to a fresh engine
// and starts one process that sleeps for work.
func attachSampler(t *testing.T, interval, work time.Duration) (*sim.Engine, *T) {
	t.Helper()
	e := sim.NewEngine(1)
	t.Cleanup(e.Shutdown)
	tel, err := Attach(e, obs.New(), Config{Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("work", func(p *sim.Proc) { p.Sleep(work) })
	return e, tel
}

// The sampler ticks on its grid for as long as other work is pending, then
// stops itself so that plain Run still drains. Work ends at 350 µs: the
// ticks at 100, 200 and 300 µs see it pending, the one at 400 µs finds
// nothing else and is the last. A stopped sampler stays stopped.
func TestSamplerIdleStops(t *testing.T) {
	e, tel := attachSampler(t, 100*time.Microsecond, 350*time.Microsecond)
	e.Run()
	want := []int64{100_000, 200_000, 300_000, 400_000}
	if !slices.Equal(tel.store.times, want) || e.PendingEvents() != 0 {
		t.Fatalf("ticks at %v with %d events left, want %v and none", tel.store.times, e.PendingEvents(), want)
	}
	e.Go("more", func(p *sim.Proc) { p.Sleep(time.Millisecond) })
	e.Run()
	if tel.Ticks() != int64(len(want)) {
		t.Fatalf("%d ticks after more work, want the %d before it", tel.Ticks(), len(want))
	}
}

// Flush takes the last sample and ends sampling: the tick it finds scheduled
// does nothing, and none follows it.
func TestFlushEndsSampling(t *testing.T) {
	e, tel := attachSampler(t, 100*time.Microsecond, time.Millisecond)
	e.RunUntil(sim.Time(250 * time.Microsecond))
	tel.Flush(e.Now())
	e.Run()
	if want := []int64{100_000, 200_000, 250_000}; !slices.Equal(tel.store.times, want) || e.Now() != sim.Time(time.Millisecond) {
		t.Fatalf("ticks at %v, run ended at %v; want %v and 1ms", tel.store.times, e.Now(), want)
	}
}

// A non-positive interval samples every 100 µs, the default.
func TestSamplerDefaultsInterval(t *testing.T) {
	e, tel := attachSampler(t, 0, 250*time.Microsecond)
	e.Run()
	if want := []int64{100_000, 200_000, 300_000}; !slices.Equal(tel.store.times, want) {
		t.Fatalf("ticks at %v, want %v", tel.store.times, want)
	}
}

// runPipeline drives a two-phase synthetic load (healthy then degraded)
// through a full pipeline and returns its timeline export. Identical calls
// must return identical bytes.
func runPipeline(t *testing.T) (*T, []byte) {
	t.Helper()
	e := sim.NewEngine(7)
	o := obs.New()
	tel, err := Attach(e, o, Config{
		Interval: 100 * time.Microsecond,
		SLOs:     []string{"p99(m) < 200us over 500us"},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := o.Histogram("m")
	c := o.Counter("ops")
	g := o.Gauge("depth")
	e.Go("load", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			s := o.Begin(p, "op")
			d := 50 * time.Microsecond
			if i >= 10 {
				d = 900 * time.Microsecond // phase 2: the tail degrades
			}
			g.Set(float64(i % 7))
			h.Observe(d)
			c.Inc()
			p.Sleep(100 * time.Microsecond)
			s.End(p)
		}
	})
	e.Run()
	tel.Flush(e.Now())
	b, err := tel.TimelineJSON(e.Now())
	if err != nil {
		t.Fatal(err)
	}
	return tel, b
}

// TestPipelineSampling checks the sampler produced the full column set, the
// SLO engine caught the degraded phase, and a flight-recorder dump was taken.
func TestPipelineSampling(t *testing.T) {
	tel, _ := runPipeline(t)

	st := tel.Store()
	if st.Ticks() == 0 {
		t.Fatal("no sample ticks recorded")
	}
	for _, col := range []string{"ops:rate", "depth:last", "depth:peak", "m:p50", "m:p99", "m:wcount"} {
		if st.cols[col] == nil {
			t.Errorf("missing column %q (have %v)", col, st.ColumnNames())
		}
	}
	// The gauge cycles 0..6, so its drained window peak must reach 6.
	peak := 0.0
	for _, v := range st.cols["depth:peak"] {
		if v > peak {
			peak = v
		}
	}
	if peak != 6 {
		t.Errorf("depth:peak never saw the excursion: max %g, want 6", peak)
	}

	if len(tel.Violations()) == 0 {
		t.Fatal("degraded phase produced no SLO violations")
	}
	v := tel.Violations()[0]
	if v.Metric != "m" || v.ObservedNs <= v.ThresholdNs {
		t.Errorf("violation = %+v", v)
	}
	obj := tel.Objectives()[0]
	if obj.Violations() == 0 || obj.BurnRate() <= 0 || obj.BurnRate() > 1 {
		t.Errorf("objective windows=%d violations=%d burn=%g",
			obj.Windows(), obj.Violations(), obj.BurnRate())
	}

	if len(tel.Dumps()) == 0 {
		t.Fatal("SLO violation took no flight-recorder dump")
	}
	d := tel.Dumps()[0]
	if !strings.HasPrefix(d.Reason, "slo:p99(m)") {
		t.Errorf("dump reason = %q", d.Reason)
	}
	if len(d.Spans) == 0 {
		t.Error("dump carries no spans")
	}
}

// TestPipelineDeterministic checks the export contract: identical runs
// produce byte-identical timelines.
func TestPipelineDeterministic(t *testing.T) {
	_, b1 := runPipeline(t)
	_, b2 := runPipeline(t)
	if !bytes.Equal(b1, b2) {
		t.Error("identical runs exported different timeline bytes")
	}
}

// TestPinBubblingFeedsFaultDump checks the end-to-end anomaly path: a span
// pinned deep in an operation bubbles to its root at close, the recorder
// tail-samples the tree, and the next sampler tick dumps it as a fault.
func TestPinBubblingFeedsFaultDump(t *testing.T) {
	e := sim.NewEngine(7)
	o := obs.New()
	tel, err := Attach(e, o, Config{Interval: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("op", func(p *sim.Proc) {
		root := o.Begin(p, "client.write")
		mid := o.Begin(p, "nvmefs.submit")
		leaf := o.Begin(p, "nvmefs.retry")
		leaf.Pin() // the fault site: only the leaf is marked
		p.Sleep(50 * time.Microsecond)
		leaf.End(p)
		mid.End(p)
		root.End(p)
		p.Sleep(200 * time.Microsecond) // leave a tick to notice the fault
	})
	e.Run()
	tel.Flush(e.Now())

	trees := tel.Recorder().Trees()
	if len(trees) != 1 || trees[0].Reason != "fault" {
		t.Fatalf("trees = %+v, want one fault tree", trees)
	}
	if len(trees[0].Spans) != 3 {
		t.Errorf("fault tree has %d spans, want the full 3-deep chain", len(trees[0].Spans))
	}
	if len(tel.Dumps()) != 1 || !strings.HasPrefix(tel.Dumps()[0].Reason, "fault:") {
		t.Fatalf("dumps = %+v, want one fault dump", tel.Dumps())
	}
}
