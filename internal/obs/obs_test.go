package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dpc/internal/sim"
)

// TestSpanNesting checks that Begin picks up the enclosing span within one
// process, BeginChild crosses processes, and SetParent re-links an open span.
func TestSpanNesting(t *testing.T) {
	o := New()
	eng := sim.NewEngine(1)
	var parentOfChild, parentOfHop, parentOfLate uint64
	eng.Go("main", func(p *sim.Proc) {
		root := o.Begin(p, "root")
		child := o.Begin(p, "child")
		parentOfChild = o.tr.open[child.id].parent

		cur := o.Current(p)
		if cur.id != child.id {
			t.Errorf("Current = span %d, want innermost %d", cur.id, child.id)
		}

		eng.Go("worker", func(wp *sim.Proc) {
			hop := o.BeginChild(wp, root, "hop")
			parentOfHop = o.tr.open[hop.id].parent
			hop.End(wp)
		})

		late := o.Begin(p, "late-orphan")
		// Simulate the TGT pattern: the span opens before its true parent is
		// known, then links once the CID is decoded.
		late.SetParent(root)
		parentOfLate = o.tr.open[late.id].parent
		late.End(p)
		child.End(p)
		root.End(p)
	})
	eng.Run()

	if parentOfChild == 0 {
		t.Error("child span has no parent; Begin should nest under the open root")
	}
	if parentOfHop == 0 {
		t.Error("cross-process span has no parent; BeginChild should link explicitly")
	}
	if parentOfLate == 0 {
		t.Error("SetParent did not re-link the open span")
	}
	if n := o.Tracer().SpanCount(); n != 4 {
		t.Errorf("SpanCount = %d, want 4", n)
	}
}

// runSpanScenario drives a fixed multi-process workload against a fresh
// engine + hub and returns the Perfetto export and metrics snapshot.
func runSpanScenario(seed int64) ([]byte, []byte) {
	o := New()
	eng := sim.NewEngine(seed)
	for i := 0; i < 3; i++ {
		eng.Go("client", func(p *sim.Proc) {
			op := o.Begin(p, "op")
			o.Counter("test.ops").Inc()
			p.Sleep(100 * time.Nanosecond)
			inner := o.Begin(p, "inner")
			o.Annotate(p, "dma:test", 4096)
			o.Histogram("test.latency").Observe(250 * time.Nanosecond)
			p.Sleep(50 * time.Nanosecond)
			inner.End(p)
			op.End(p)
		})
	}
	eng.Run()
	js, err := o.SnapshotJSON(eng.Now())
	if err != nil {
		panic(err)
	}
	return o.Tracer().Perfetto(eng.Now()), js
}

// TestExportDeterminism: identical seeds must produce byte-identical Perfetto
// JSON and metrics snapshots.
func TestExportDeterminism(t *testing.T) {
	trace1, snap1 := runSpanScenario(7)
	trace2, snap2 := runSpanScenario(7)
	if !bytes.Equal(trace1, trace2) {
		t.Error("identical runs produced different Perfetto JSON")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("identical runs produced different metrics snapshots")
	}
	for _, want := range []string{`"name":"op"`, `"name":"inner"`, `"name":"dma:test"`, `"bytes":4096`} {
		if !strings.Contains(string(trace1), want) {
			t.Errorf("Perfetto export missing %s", want)
		}
	}
}

// TestPerfettoOrdering: events are sorted by (start, id), so a span that
// starts earlier always precedes one that starts later.
func TestPerfettoOrdering(t *testing.T) {
	o := New()
	eng := sim.NewEngine(1)
	eng.Go("p", func(p *sim.Proc) {
		a := o.Begin(p, "first")
		a.End(p)
		p.Sleep(time.Microsecond)
		b := o.Begin(p, "second")
		b.End(p)
	})
	eng.Run()
	out := string(o.Tracer().Perfetto(eng.Now()))
	if i, j := strings.Index(out, `"name":"first"`), strings.Index(out, `"name":"second"`); i < 0 || j < 0 || i > j {
		t.Errorf("export order wrong: first at %d, second at %d", i, j)
	}
}

// TestHistogramBucketBoundaries: samples land in the first bucket whose
// upper bound covers them, and the bucket list is strictly increasing.
func TestHistogramBucketBoundaries(t *testing.T) {
	o := New()
	h := o.Histogram("test.hist")
	samples := []time.Duration{1, 255, 256, 1000, 1 << 20, time.Second}
	for _, d := range samples {
		h.Observe(d)
	}
	snap := o.Registry().Snapshot(0)
	hs := snap.Histograms["test.hist"]
	if hs.Count != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", hs.Count, len(samples))
	}
	if hs.MinNs != 1 || hs.MaxNs != int64(time.Second) {
		t.Errorf("min/max = %d/%d, want 1/%d", hs.MinNs, hs.MaxNs, int64(time.Second))
	}
	var total int64
	prev := int64(-1)
	for _, b := range hs.Buckets {
		if b.LENs <= prev {
			t.Errorf("bucket bounds not increasing: %d after %d", b.LENs, prev)
		}
		prev = b.LENs
		total += b.Count
	}
	if total != hs.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, hs.Count)
	}
	// Every sample must be <= the bound of some populated bucket.
	for _, d := range samples {
		covered := false
		for _, b := range hs.Buckets {
			if int64(d) <= b.LENs {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("sample %v not covered by any bucket (last bound %d)", d, prev)
		}
	}
}

// TestSpanCap: spans over the cap are dropped and counted, not recorded.
func TestSpanCap(t *testing.T) {
	o := New()
	o.Tracer().maxSpans = 2
	eng := sim.NewEngine(1)
	eng.Go("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			s := o.Begin(p, "s")
			s.End(p)
		}
	})
	eng.Run()
	if n := o.Tracer().SpanCount(); n != 2 {
		t.Errorf("SpanCount = %d, want 2", n)
	}
	if d := o.Tracer().Dropped(); d != 3 {
		t.Errorf("Dropped = %d, want 3", d)
	}
}

// TestDisabledPathAllocatesNothing: with no Obs attached every instrumented
// hot path must compile down to nil checks — zero bytes allocated.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs reports enabled")
	}
	c := o.Counter("x")
	h := o.Histogram("x")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		c.Inc()
		o.Gauge("g").Set(1)
		h.Observe(time.Microsecond)
		s := o.Begin(nil, "span")
		o.Annotate(nil, "dma", 4096)
		s.SetParent(Span{})
		s.End(nil)
		// Attribution on a nil hub is a bare nil check.
		o.Attr(nil, CompWait, "q", 0, 10)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.0f bytes/op, want 0", allocs)
	}
}

// TestNilSnapshots: a nil hub still renders a valid empty snapshot.
func TestNilSnapshots(t *testing.T) {
	var o *Obs
	b, err := o.SnapshotJSON(0)
	if err != nil || len(b) == 0 {
		t.Fatalf("nil hub snapshot: err=%v len=%d", err, len(b))
	}
	if !strings.Contains(string(b), `"counters": {}`) || strings.Contains(string(b), "tracer_dropped") {
		t.Errorf("nil hub snapshot not empty: %s", b)
	}
}

// TestPublishExportsComponentStorage: the registry reads a published
// location, it does not copy it. Instances sharing a name export their sum, a
// plain int64 field publishes like a Counter, a name exists only once
// something is published under it, republishing a location does not double
// it, and a registry-owned counter is one more location under its name.
func TestPublishExportsComponentStorage(t *testing.T) {
	r := NewRegistry()
	var a, b Counter
	var plain int64
	r.Publish("dev.reads", a.Loc())
	r.Publish("dev.reads", b.Loc())
	r.Publish("dev.reads", a.Loc())
	r.Publish("drv.retries", &plain)
	a.Add(3)
	b.Inc()
	plain += 7
	if got := r.CounterValue("dev.reads"); got != 4 {
		t.Errorf("dev.reads = %d, want the sum 4", got)
	}
	r.Counter("dev.reads").Add(10)
	r.Counter("dev.reads").Inc()
	snap := r.Snapshot(0)
	if snap.Counters["dev.reads"] != 15 || snap.Counters["drv.retries"] != 7 {
		t.Errorf("snapshot = %v, want dev.reads 15, drv.retries 7", snap.Counters)
	}
	if _, ok := snap.Counters["dev.lazy"]; ok || r.CounterValue("dev.lazy") != 0 {
		t.Error("reading an unpublished name created it")
	}
	if names := r.CounterNames(); len(names) != 2 || names[0] != "dev.reads" || names[1] != "drv.retries" {
		t.Errorf("CounterNames = %v", names)
	}
	var off *Registry
	off.Publish("x", &plain) // disabled: a nil check, nothing more
	if off.CounterValue("x") != 0 {
		t.Error("nil registry exported a value")
	}
}
