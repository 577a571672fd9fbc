package obs

import "dpc/internal/sim"

// Component classifies where a slice of a span's wall time went. The
// profiler (internal/prof) decomposes every closed span into these buckets;
// per span they sum exactly to the span's duration, with CompOther covering
// whatever no instrumented resource claimed.
type Component uint8

const (
	// CompCPU is compute on a core (host or DPU cycle burn).
	CompCPU Component = iota
	// CompDMA is PCIe DMA engine time: per-transfer setup plus payload on
	// the link.
	CompDMA
	// CompMMIO is MMIO and PCIe-atomic round trips (doorbells, locks).
	CompMMIO
	// CompSSD is SSD device service: media latency plus channel-bus payload.
	CompSSD
	// CompWait is time spent blocked without consuming a resource: run-queue
	// waits, queue-slot and inflight-window parks, lock spins, retry
	// backoff, notification delays.
	CompWait
	// CompOther is the residual a span's instrumentation did not claim.
	CompOther

	// NumComponents counts the variants above.
	NumComponents
)

var componentNames = [NumComponents]string{"cpu", "dma", "mmio", "ssd", "wait", "other"}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

// ComponentByName maps a component name back to its value (trace import).
func ComponentByName(name string) (Component, bool) {
	for c, n := range componentNames {
		if n == name {
			return Component(c), true
		}
	}
	return 0, false
}

// ivRec is one attributed interval inside a span, recorded while that span
// was the innermost open span on its process. Because a process does one
// timed thing at a time, the intervals of a span never overlap each other
// or the span's same-process children.
type ivRec struct {
	comp       Component
	kind       string
	start, end sim.Time
}

// Interval is the exported form of one attributed component interval.
type Interval struct {
	Comp       Component
	Kind       string
	Start, End sim.Time
}

// SpanData is the exported, analysis-ready form of one recorded span.
type SpanData struct {
	ID        uint64
	Parent    uint64
	Name      string
	Proc      string
	Start     sim.Time
	End       sim.Time
	Intervals []Interval
}

// attr appends one component interval to the open span id, a process's
// innermost or one named outright. Intervals arriving with no span open are
// dropped and counted (visible in reports so truncation cannot silently skew
// attribution).
func (t *Tracer) attr(id uint64, comp Component, kind string, start, end sim.Time) {
	if id != 0 {
		if rec := t.open[id]; rec != nil {
			rec.ivs = append(rec.ivs, ivRec{comp: comp, kind: kind, start: start, end: end})
			return
		}
	}
	t.droppedIvs++
}

// DroppedIntervals reports attributed intervals that found no open span.
func (t *Tracer) DroppedIntervals() int64 { return t.droppedIvs }

// Export returns every recorded span (spans still open are clipped at now)
// sorted by (start, id), with process names resolved and intervals copied.
// This is the in-process feed for internal/prof; ParsePerfetto reconstructs
// the same view from an exported trace file.
func (t *Tracer) Export(now sim.Time) []SpanData {
	recs := make([]*spanRec, 0, len(t.done)+len(t.open))
	recs = append(recs, t.done...)
	for _, rec := range t.open {
		recs = append(recs, rec)
	}
	sortSpans(recs)
	out := make([]SpanData, len(recs))
	for i, rec := range recs {
		end := rec.end
		if end < 0 {
			end = now
		}
		out[i] = rec.export(t, end)
	}
	return out
}
