// Package telemetry is the continuous-observation layer over the simulation:
// a virtual-time sampler that snapshots every registered metric into a
// columnar series store (counters as rates, gauges as last+peak, histograms
// as sliding-window tail quantiles via bucket-delta subtraction), a
// declarative SLO engine evaluated on the sample grid with burn-rate
// accounting, and an always-on bounded flight recorder that dumps the causal
// span trace plus a critical-path report when an objective burns or a
// fault-pinned operation completes.
//
// The layer is strictly opt-in: nothing here runs unless Attach is called,
// and the hooks it installs (gauge peaks, the tracer close hook) cost the
// instrumented hot paths nothing when absent.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Config parameterizes Attach. The zero value gets sane defaults.
type Config struct {
	// Interval is the virtual-time sample period (default 100us).
	Interval time.Duration
	// SLOs are objective specs, e.g. "p99(client.read.latency) < 800us over 1ms".
	SLOs []string
	// SlowSpan pins root spans at least this slow (0 = disabled).
	SlowSpan time.Duration
}

// The pipeline's memory bounds.
const (
	recorderSpans = 4096    // flight-recorder ring capacity
	recorderTrees = 16      // retained anomalous span trees
	maxDumps      = 8       // retained trace dumps
	maxTicks      = 1 << 20 // series store rows
	// maxViolations bounds the retained violation list; objectives keep exact
	// counts past it.
	maxViolations = 4096
)

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Microsecond
	}
}

// sampledCounter tracks one exported counter name between ticks; the column
// name is precomputed so steady-state ticks build no strings.
type sampledCounter struct {
	name    string
	prev    int64
	colRate string
}

type sampledGauge struct {
	g                *obs.Gauge
	colLast, colPeak string
}

type sampledHist struct {
	h         *obs.Histogram
	prev      []int64
	prevTotal int64
	colP50    string
	colP95    string
	colP99    string
	colP999   string
	colWCount string
}

// Dump is one flight-recorder trigger: the causal span trace around the
// offending window plus its critical-path report.
type Dump struct {
	TimeNs   int64        `json:"time_ns"`
	Reason   string       `json:"reason"`
	WindowNs int64        `json:"window_ns"`
	Spans    []dumpSpan   `json:"spans"`
	Report   *prof.Report `json:"report"`
}

type dumpSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	Proc    string `json:"proc"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// T is an attached telemetry pipeline.
type T struct {
	e   *sim.Engine
	o   *obs.Obs
	cfg Config

	store  *Store
	ticker *sim.Ticker

	counters   []sampledCounter
	gauges     []sampledGauge
	hists      []sampledHist
	nc, ng, nh int // registry counts at last refresh

	cur   []int64 // shared cumulative-snapshot scratch
	delta []int64 // shared window-delta scratch

	slos              []*Objective
	violations        []Violation
	droppedViolations int64

	rec          *Recorder
	dumps        []Dump
	droppedDumps int64

	ticks      int64
	lastTickNs int64
	flushed    bool
}

// Attach builds the pipeline on an enabled observability hub and starts the
// sampler on the engine's virtual clock. The sampler runs in event context
// (it consumes no virtual time and never touches the PRNG) and idle-stops
// with the simulation, so attaching telemetry perturbs nothing the workload
// can observe.
func Attach(e *sim.Engine, o *obs.Obs, cfg Config) (*T, error) {
	if !o.Enabled() {
		return nil, errors.New("telemetry: requires an enabled obs hub")
	}
	cfg.defaults()
	t := &T{
		e:     e,
		o:     o,
		cfg:   cfg,
		store: newStore(int64(cfg.Interval), maxTicks),
		cur:   make([]int64, stats.BucketCount()),
		delta: make([]int64, stats.BucketCount()),
	}
	for _, spec := range cfg.SLOs {
		obj, err := ParseSLO(spec)
		if err != nil {
			return nil, err
		}
		obj.everyTicks = (obj.WindowNs + int64(cfg.Interval)/2) / int64(cfg.Interval)
		if obj.everyTicks < 1 {
			obj.everyTicks = 1
		}
		t.slos = append(t.slos, obj)
	}
	t.rec = newRecorder(recorderSpans, int64(cfg.SlowSpan), recorderTrees)
	o.Tracer().SetCloseHook(t.rec.observe)
	t.ticker = e.NewTicker(cfg.Interval, t.sample)
	return t, nil
}

// Store exposes the series store.
func (t *T) Store() *Store { return t.store }

// Recorder exposes the flight recorder.
func (t *T) Recorder() *Recorder { return t.rec }

// Objectives returns the attached SLOs.
func (t *T) Objectives() []*Objective { return t.slos }

// Violations returns the retained violation events in occurrence order.
func (t *T) Violations() []Violation { return t.violations }

// Dumps returns the retained flight-recorder dumps.
func (t *T) Dumps() []Dump { return t.dumps }

// Ticks returns how many sample ticks have fired.
func (t *T) Ticks() int64 { return t.ticks }

// refresh re-resolves the sampled metric sets when the registry grew
// (metrics are created lazily on first use). Prior window state carries
// over by name.
func (t *T) refresh() {
	reg := t.o.Registry()
	nc, ng, nh := reg.Counts()
	if nc == t.nc && ng == t.ng && nh == t.nh {
		return
	}
	if nc != t.nc {
		prev := make(map[string]int64, len(t.counters))
		for _, sc := range t.counters {
			prev[sc.name] = sc.prev
		}
		t.counters = t.counters[:0]
		for _, name := range reg.CounterNames() {
			t.counters = append(t.counters, sampledCounter{name: name, prev: prev[name], colRate: name + ":rate"})
		}
		t.nc = nc
	}
	if ng != t.ng {
		prev := make(map[string]sampledGauge, len(t.gauges))
		for _, sg := range t.gauges {
			prev[sg.colLast] = sg
		}
		t.gauges = t.gauges[:0]
		for _, name := range reg.GaugeNames() {
			col := name + ":last"
			if sg, ok := prev[col]; ok {
				t.gauges = append(t.gauges, sg)
			} else {
				t.gauges = append(t.gauges, sampledGauge{
					// Registry-enumerated name. //dpclint:ok
					g: reg.Gauge(name), colLast: col, colPeak: name + ":peak",
				})
			}
		}
		t.ng = ng
	}
	if nh != t.nh {
		prev := make(map[string]sampledHist, len(t.hists))
		for _, sh := range t.hists {
			prev[sh.colP50] = sh
		}
		t.hists = t.hists[:0]
		for _, name := range reg.HistogramNames() {
			col := name + ":p50"
			if sh, ok := prev[col]; ok {
				t.hists = append(t.hists, sh)
			} else {
				t.hists = append(t.hists, sampledHist{
					h:         reg.Histogram(name), // registry-enumerated //dpclint:ok
					prev:      make([]int64, stats.BucketCount()),
					colP50:    col,
					colP95:    name + ":p95",
					colP99:    name + ":p99",
					colP999:   name + ":p999",
					colWCount: name + ":wcount",
				})
			}
		}
		t.nh = nh
	}
}

// sample is the per-tick body: snapshot every metric into the store, then
// run due SLO evaluations and fault-dump checks.
func (t *T) sample(now sim.Time) {
	t.refresh()
	elapsed := int64(now) - t.lastTickNs
	record := t.store.beginTick(int64(now))
	secs := float64(elapsed) / 1e9

	reg := t.o.Registry()
	for i := range t.counters {
		sc := &t.counters[i]
		v := reg.CounterValue(sc.name)
		if record {
			rate := 0.0
			if secs > 0 {
				rate = float64(v-sc.prev) / secs
			}
			t.store.set(sc.colRate, rate)
		}
		sc.prev = v
	}
	for i := range t.gauges {
		sg := &t.gauges[i]
		peak := sg.g.DrainPeak()
		if record {
			t.store.set(sg.colLast, sg.g.Value())
			t.store.set(sg.colPeak, peak)
		}
	}
	for i := range t.hists {
		sh := &t.hists[i]
		total := sh.h.Latency().CopyBuckets(t.cur)
		wtotal := total - sh.prevTotal
		for j := range t.cur {
			t.delta[j] = t.cur[j] - sh.prev[j]
		}
		if record {
			t.store.set(sh.colP50, float64(stats.WindowQuantile(t.delta, wtotal, 0.50)))
			t.store.set(sh.colP95, float64(stats.WindowQuantile(t.delta, wtotal, 0.95)))
			t.store.set(sh.colP99, float64(stats.WindowQuantile(t.delta, wtotal, 0.99)))
			t.store.set(sh.colP999, float64(stats.WindowQuantile(t.delta, wtotal, 0.999)))
			t.store.set(sh.colWCount, float64(wtotal))
		}
		copy(sh.prev, t.cur)
		sh.prevTotal = total
	}

	t.ticks++
	t.lastTickNs = int64(now)

	dumped := false
	for _, obj := range t.slos {
		if t.ticks%obj.everyTicks != 0 {
			continue
		}
		v, bad := obj.eval(t.o.Registry(), int64(now), t.cur)
		if !bad {
			continue
		}
		if len(t.violations) < maxViolations {
			t.violations = append(t.violations, v)
		} else {
			t.droppedViolations++
		}
		if !dumped {
			t.dump(now, "slo:"+obj.QLabel+"("+obj.Metric+")", obj.WindowNs)
			dumped = true
		}
	}
	if n := t.rec.takeFaults(); n > 0 && !dumped {
		t.dump(now, fmt.Sprintf("fault:%d-pinned-roots", n), elapsed)
	}
}

// Flush forces a final sample at now, capturing the partial window between
// the last tick and the end of the run. Safe to call once after the engine
// drains; subsequent calls are no-ops.
func (t *T) Flush(now sim.Time) {
	if t.flushed {
		return
	}
	t.flushed = true
	t.ticker.Stop()
	if int64(now) > t.lastTickNs {
		t.sample(now)
	}
}

// dump snapshots the flight recorder over [now-window, now] and attaches a
// critical-path report. Retained dumps are bounded; extra triggers count.
func (t *T) dump(now sim.Time, reason string, windowNs int64) {
	if len(t.dumps) >= maxDumps {
		t.droppedDumps++
		return
	}
	lo := now - sim.Time(windowNs)
	if lo < 0 {
		lo = 0
	}
	spans := t.rec.windowSpans(lo, nil)
	rep := prof.BuildReport(prof.Analyze(spans), int64(now), 0, 0, 3)
	ds := make([]dumpSpan, len(spans))
	for i, sd := range spans {
		ds[i] = dumpSpan{
			ID: sd.ID, Parent: sd.Parent, Name: sd.Name, Proc: sd.Proc,
			StartNs: int64(sd.Start), EndNs: int64(sd.End),
		}
	}
	t.dumps = append(t.dumps, Dump{
		TimeNs: int64(now), Reason: reason, WindowNs: windowNs, Spans: ds, Report: rep,
	})
}

// sloJSON is the per-objective summary in the timeline export.
type sloJSON struct {
	Spec        string  `json:"spec"`
	Metric      string  `json:"metric"`
	Quantile    string  `json:"quantile"`
	ThresholdNs int64   `json:"threshold_ns"`
	WindowNs    int64   `json:"window_ns"`
	Windows     int64   `json:"windows"`
	Violations  int64   `json:"violations"`
	BurnRate    float64 `json:"burn_rate"`
}

// timelineJSON is the full timeline export shape.
type timelineJSON struct {
	SimTimeNs         int64       `json:"sim_time_ns"`
	Series            *Store      `json:"series"`
	SLOs              []sloJSON   `json:"slos"`
	Violations        []Violation `json:"violations"`
	DroppedViolations int64       `json:"dropped_violations"`
	RecorderSpans     int64       `json:"recorder_spans"`
	PinnedTrees       int         `json:"pinned_trees"`
	Dumps             []Dump      `json:"dumps"`
	DroppedDumps      int64       `json:"dropped_dumps"`
}

// TimelineJSON renders the whole pipeline — series store, SLO summaries,
// violation events and flight-recorder dumps — as indented JSON with sorted
// keys. Identical seeds produce identical bytes.
func (t *T) TimelineJSON(now sim.Time) ([]byte, error) {
	out := timelineJSON{
		SimTimeNs:         int64(now),
		Series:            t.store,
		SLOs:              []sloJSON{},
		Violations:        t.violations,
		DroppedViolations: t.droppedViolations,
		RecorderSpans:     t.rec.Total(),
		PinnedTrees:       len(t.rec.Trees()),
		Dumps:             t.dumps,
		DroppedDumps:      t.droppedDumps,
	}
	if out.Violations == nil {
		out.Violations = []Violation{}
	}
	if out.Dumps == nil {
		out.Dumps = []Dump{}
	}
	for _, obj := range t.slos {
		out.SLOs = append(out.SLOs, sloJSON{
			Spec:        obj.Spec,
			Metric:      obj.Metric,
			Quantile:    obj.QLabel,
			ThresholdNs: obj.ThresholdNs,
			WindowNs:    obj.WindowNs,
			Windows:     obj.Windows(),
			Violations:  obj.Violations(),
			BurnRate:    obj.BurnRate(),
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// PerfettoTrace exports the span trace with the sampled series spliced in
// as counter tracks, so queue depths, IOPS and hit ratios graph alongside
// the span timeline in the Perfetto UI.
func (t *T) PerfettoTrace(now sim.Time) []byte {
	return SpliceCounterTrack(t.o.Tracer().Perfetto(now), t.store.PerfettoCounterEvents())
}
