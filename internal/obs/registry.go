package obs

import (
	"math"
	"sort"
	"time"

	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Registry is a process-wide set of named metrics. Names follow the
// layer.component.metric scheme (e.g. "cache.host.hits", "pcie.link.dmas").
// Gauges and histograms are created on first use and live for the registry's
// lifetime; all values are recorded in virtual time so snapshots are
// deterministic. Counters are not stored here: an event is counted once, in a
// field of the component that observes it, and Publish exports that storage
// by name. A name exists from its first Publish, so a component that
// publishes on first use of a feature keeps runs without it free of the key.
// The registry points into its components, so it keeps them (and the machine
// behind them) alive for as long as it lives.
//
// A nil *Registry is valid and returns nil metrics, whose record methods are
// no-ops — the disabled path is a nil check, nothing more.
type Registry struct {
	counters map[string][]*int64 // every location published under a name
	owned    map[string]*Counter // the ones Counter created, by name
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string][]*int64{},
		owned:    map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is the tree's one counter type; a nil pointer is a no-op sink.
type Counter = stats.Counter

// Gauge is a last-value metric (utilizations, ratios, levels). Alongside the
// last value it tracks a monotone window peak: Set raises it, DrainPeak
// reads and re-arms it. A sampler that only reads the last value at each
// tick would silently miss any excursion between ticks (a queue-depth spike
// that rises and drains inside one interval); draining the peak per sample
// window makes those excursions visible. Snapshots export the last value
// only, so peak tracking never changes snapshot bytes.
type Gauge struct{ v, peak float64 }

// Set stores the gauge's current value and raises the window peak.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		if v > g.peak {
			g.peak = v
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value (monotone
// within a window); lower values only feed the peak no-op.
func (g *Gauge) SetMax(v float64) {
	if g != nil {
		if v > g.v {
			g.v = v
		}
		if v > g.peak {
			g.peak = v
		}
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Peak returns the highest value seen since the last DrainPeak (or ever).
func (g *Gauge) Peak() float64 {
	if g == nil {
		return 0
	}
	return g.peak
}

// DrainPeak returns the window peak and re-arms it at the current value, so
// the next window's peak starts from the live level rather than zero.
func (g *Gauge) DrainPeak() float64 {
	if g == nil {
		return 0
	}
	p := g.peak
	g.peak = g.v
	return p
}

// Histogram is a bounded log-bucketed duration distribution backed by the
// stats bounded recorder: constant memory however many samples land in it.
type Histogram struct{ lat *stats.Latency }

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if h != nil {
		h.lat.Record(d)
	}
}

// Latency exposes the underlying recorder (nil for a nil histogram).
func (h *Histogram) Latency() *stats.Latency {
	if h == nil {
		return nil
	}
	return h.lat
}

// Publish exports the count stored at loc under name. Instances that publish
// the same name (two cache controllers, every SSD) export their sum;
// publishing a location twice is a no-op.
func (r *Registry) Publish(name string, loc *int64) {
	if r == nil {
		return
	}
	for _, l := range r.counters[name] {
		if l == loc {
			return
		}
	}
	r.counters[name] = append(r.counters[name], loc)
}

// Counter returns the registry-owned counter called name, creating and
// publishing it on first use: the home of a count no component field holds.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.owned[name]
	if c == nil {
		c = &Counter{}
		r.owned[name] = c
		r.counters[name] = append(r.counters[name], c.Loc())
	}
	return c
}

// CounterValue returns the exported value of name: the sum of the locations
// published under it, 0 when there is none. It never creates the name.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	var v int64
	for _, l := range r.counters[name] {
		v += *l
	}
	return v
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{lat: stats.NewLatencyBounded()}
		r.hists[name] = h
	}
	return h
}

// Counts reports how many counters, gauges and histograms are registered.
// The telemetry sampler polls it to detect lazily-created series without
// re-sorting names every tick.
func (r *Registry) Counts() (counters, gauges, hists int) {
	if r == nil {
		return 0, 0, 0
	}
	return len(r.counters), len(r.gauges), len(r.hists)
}

// CounterNames returns the published counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	return sortedNames(r.counters)
}

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	return sortedNames(r.gauges)
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	return sortedNames(r.hists)
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LookupHistogram returns the named histogram if it exists, without creating
// it (SLO objectives resolve lazily against metrics that appear mid-run).
func (r *Registry) LookupHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists[name]
}

// HistBucket is one populated histogram bucket in a snapshot.
type HistBucket struct {
	LENs  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistSnapshot summarizes one histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	SumNs   int64        `json:"sum_ns"`
	MinNs   int64        `json:"min_ns"`
	MaxNs   int64        `json:"max_ns"`
	P50Ns   int64        `json:"p50_ns"`
	P99Ns   int64        `json:"p99_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Quantile computes the q-quantile (0 < q <= 1) from the snapshot's
// log-spaced buckets using the same nearest-rank rule as the live recorder,
// clamped to the observed extremes so a sparse distribution never reports
// past its true min/max. Exact-form snapshots (no buckets) fall back to the
// precomputed p50/p99 nearest match.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if len(h.Buckets) == 0 {
		if q <= 0.5 {
			return h.P50Ns
		}
		return h.P99Ns
	}
	if q <= 0 {
		return h.MinNs
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			ub := b.LENs
			if ub > h.MaxNs {
				ub = h.MaxNs
			}
			return ub
		}
	}
	return h.MaxNs
}

// Snapshot is a stable, JSON-serializable view of a registry. Map keys
// marshal in sorted order, so identical registries produce identical bytes.
//
// TracerDropped and Series are the tracer health Obs.SnapshotJSON adds; a
// nil hub leaves them unset.
type Snapshot struct {
	SimTimeNs  int64                   `json:"sim_time_ns"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`

	// TracerDropped counts spans discarded over the tracer cap — nonzero
	// means attribution reports are computed from a truncated trace.
	TracerDropped *int64 `json:"tracer_dropped,omitempty"`
	// Series counts recorded series and spans per kind.
	Series map[string]int64 `json:"series,omitempty"`
}

// Snapshot captures every metric at virtual time now.
func (r *Registry) Snapshot(now sim.Time) Snapshot {
	s := Snapshot{
		SimTimeNs:  int64(now),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	for name := range r.counters {
		s.Counters[name] = r.CounterValue(name)
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Count: int64(h.lat.Count()),
			SumNs: int64(h.lat.Sum()),
			MinNs: int64(h.lat.Min()),
			MaxNs: int64(h.lat.Max()),
			P50Ns: int64(h.lat.Percentile(50)),
			P99Ns: int64(h.lat.Percentile(99)),
		}
		for _, b := range h.lat.Buckets() {
			hs.Buckets = append(hs.Buckets, HistBucket{LENs: int64(b.LE), Count: b.Count})
		}
		s.Histograms[name] = hs
	}
	return s
}
