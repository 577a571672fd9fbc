// Package obs is the unified cross-layer observability hub: a registry of
// typed counters, gauges and bounded histograms, plus span-based request
// tracing over the deterministic virtual clock. One client operation yields
// a nested span tree across client → cache → nvme-fs transport → dispatch →
// backend → storage, with PCIe DMA events attached as span annotations.
//
// Spans export as Chrome trace-event / Perfetto JSON and metrics as a stable
// JSON snapshot; identical seeds produce byte-identical output.
//
// The whole layer is opt-in and free when off: every entry point nil-checks
// its receiver, so instrumented hot paths compile down to a pointer test and
// allocate nothing when no Obs is attached (see TestDisabledPathAllocates
// Nothing). Components therefore call o.Begin/o.Publish/o.Gauge(...).Set
// unconditionally.
//
// Metric names follow the layer.component.metric scheme, e.g.
// "cache.host.hits", "pcie.link.dma_bytes_h2d", "cpu.dpu-cpu.busy_ns".
package obs

import (
	"encoding/json"
	"time"

	"dpc/internal/sim"
)

// Obs bundles a metrics registry and a span tracer. A nil *Obs disables
// the whole layer: every method no-ops and returns nil/zero handles whose
// own methods no-op in turn. An attached hub always attributes: components
// record per-span component intervals (CPU compute, DMA/MMIO, SSD service,
// waits) that internal/prof decomposes.
type Obs struct {
	reg *Registry
	tr  *Tracer
}

// New returns an enabled observability hub.
func New() *Obs {
	return &Obs{reg: NewRegistry(), tr: newTracer()}
}

// Enabled reports whether the hub records anything.
func (o *Obs) Enabled() bool { return o != nil }

// Attr records one attributed component interval [start, end) against p's
// innermost open span. Intervals recorded with no span open are dropped and
// counted. The recording process must not have run between start and now —
// all callers capture start, block (sleep, resource queue, cond wait) and
// record on wake, so the innermost span cannot have changed in between.
func (o *Obs) Attr(p *sim.Proc, comp Component, kind string, start, end sim.Time) {
	if o == nil || end <= start {
		return
	}
	o.tr.attr(o.tr.currentID(p), comp, kind, start, end)
}

// AttrSpan is Attr against span s, for work that runs as engine events.
func (o *Obs) AttrSpan(s Span, comp Component, kind string, start, end sim.Time) {
	if o == nil || end <= start {
		return
	}
	o.tr.attr(s.id, comp, kind, start, end)
}

// Sleep blocks p for d and attributes the slept interval as comp/kind on p's
// innermost span. With a nil hub it is a plain p.Sleep(d).
func (o *Obs) Sleep(p *sim.Proc, d time.Duration, comp Component, kind string) {
	if o == nil {
		p.Sleep(d)
		return
	}
	t0 := p.Now()
	p.Sleep(d)
	o.Attr(p, comp, kind, t0, p.Now())
}

// SnapshotJSON renders the metrics snapshot plus tracer health (dropped
// spans and per-kind series counts, so truncated traces are visible in
// reports instead of silently skewing attribution) as indented JSON with
// sorted keys, byte-stable across identical runs. A nil hub renders an empty
// snapshot.
func (o *Obs) SnapshotJSON(now sim.Time) ([]byte, error) {
	s := o.Registry().Snapshot(now)
	if o != nil {
		dropped := o.tr.Dropped()
		s.TracerDropped = &dropped
		s.Series = map[string]int64{
			"counters":          int64(len(o.reg.counters)),
			"gauges":            int64(len(o.reg.gauges)),
			"histograms":        int64(len(o.reg.hists)),
			"spans_closed":      int64(len(o.tr.done)),
			"spans_open":        int64(len(o.tr.open)),
			"dropped_intervals": o.tr.droppedIvs,
		}
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Registry returns the metrics registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the span tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// Counter returns the named registry-owned counter (nil, hence a no-op sink,
// when disabled).
func (o *Obs) Counter(name string) *Counter { return o.Registry().Counter(name) } // forwarder //dpclint:ok

// Publish exports component-owned counter storage under name.
func (o *Obs) Publish(name string, loc *int64) { o.Registry().Publish(name, loc) } // forwarder //dpclint:ok

// Gauge returns the named gauge.
func (o *Obs) Gauge(name string) *Gauge { return o.Registry().Gauge(name) } // forwarder //dpclint:ok

// Histogram returns the named bounded histogram.
func (o *Obs) Histogram(name string) *Histogram { return o.Registry().Histogram(name) } // forwarder //dpclint:ok

// Begin opens a span named name as a child of p's innermost open span and
// makes it current for p. End it with the returned handle.
func (o *Obs) Begin(p *sim.Proc, name string) Span {
	if o == nil {
		return Span{}
	}
	return o.tr.begin(p, o.tr.currentID(p), name)
}

// BeginChild opens a span under an explicit parent — the cross-process hop:
// the host submitter captures Current, a queue carries it to the DPU thread,
// which resumes the tree with BeginChild on its own process.
func (o *Obs) BeginChild(p *sim.Proc, parent Span, name string) Span {
	if o == nil {
		return Span{}
	}
	return o.tr.begin(p, parent.id, name)
}

// Open opens a span at start on the trace thread named thread but on no
// process's stack, for work that runs as engine events: attribute with
// AttrSpan and AnnotateSpan, close with Span.EndAt.
func (o *Obs) Open(thread string, parent Span, name string, start sim.Time) Span {
	if o == nil {
		return Span{}
	}
	return o.tr.openSpan(thread, parent.id, name, start)
}

// Current returns p's innermost open span (zero Span when none or disabled).
func (o *Obs) Current(p *sim.Proc) Span {
	if o == nil {
		return Span{}
	}
	if id := o.tr.currentID(p); id != 0 {
		return Span{t: o.tr, id: id}
	}
	return Span{}
}

// Annotate attaches an instant event (e.g. one DMA) to p's innermost open
// span, with a byte payload size for traffic accounting.
func (o *Obs) Annotate(p *sim.Proc, name string, bytes int64) {
	if o == nil {
		return
	}
	o.tr.annotate(p, name, bytes)
}

// AnnotateSpan attaches an instant event at at to span s, if s is open.
func (o *Obs) AnnotateSpan(s Span, at sim.Time, name string, bytes int64) {
	if o == nil {
		return
	}
	if rec := o.tr.open[s.id]; rec != nil {
		rec.annots = append(rec.annots, annot{at: at, name: name, bytes: bytes, tid: rec.tid})
	}
}
