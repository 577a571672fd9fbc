package whatif

import (
	"fmt"
	"sort"
	"strings"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// Config selects what a sensitivity sweep runs.
type Config struct {
	// Workloads names the reference workloads to sweep (registry names).
	// Empty means every registered workload.
	Workloads []string
	// Obs, when non-nil, receives one whatif.* gauge per (workload,
	// parameter) carrying the halving gain, so sweeps show up in metric
	// snapshots alongside everything else.
	Obs *obs.Obs
}

// Report is the sensitivity report: per-workload baseline shares and
// speedup curves, a cross-workload payoff ranking, and the payoff-vs-share
// cross-check verdicts. JSON is byte-stable: fixed ordering everywhere and
// every float quantized to 6 decimal places.
type Report struct {
	// Workload tags the report shape.
	Workload  string           `json:"workload"`
	Factors   []float64        `json:"factors"`
	Workloads []WorkloadResult `json:"workloads"`
	// TopPayoffs ranks the best halving gains across all swept
	// (workload, parameter) pairs — "what should we optimize next".
	TopPayoffs []Payoff `json:"top_payoffs"`
	// Violations counts cross-check failures plus profile-invariant and
	// fixed-work breaches; 0 is the acceptance bar.
	Violations int `json:"violations"`
	// InvariantErrs lists prof.CheckInvariant failures verbatim (empty on
	// healthy attribution).
	InvariantErrs []string `json:"invariant_errs,omitempty"`
}

// WorkloadResult is one workload's baseline profile and sweep curves.
type WorkloadResult struct {
	Name       string `json:"name"`
	Ops        int    `json:"ops"`
	BaselineNs int64  `json:"baseline_ns"`
	// Shares is the critical-path component share over the measured OpSpan
	// roots (cpu/dma/mmio/ssd/wait/other, summing to ~1).
	Shares map[string]float64 `json:"shares"`
	// WaitLayers splits the wait share by the waited-on layer (the wait
	// kind's first dot segment: pcie, ssd, nvmefs, ...).
	WaitLayers  map[string]float64 `json:"wait_layers,omitempty"`
	Curves      []Curve            `json:"curves"`
	CrossChecks []CrossCheck       `json:"cross_checks,omitempty"`
}

// Curve is one parameter's speedup curve on one workload.
type Curve struct {
	Param string `json:"param"`
	// Component is the prof component the parameter's cost lands in ("" for
	// policy knobs, which have no share bound).
	Component string  `json:"component,omitempty"`
	Points    []Point `json:"points"`
}

// Point is one counterfactual run.
type Point struct {
	Factor    float64 `json:"factor"`
	ElapsedNs int64   `json:"elapsed_ns"`
	// Speedup is baseline elapsed over this point's elapsed: > 1 means the
	// cheaper (f < 1) or pricier (f > 1... then < 1) world ran faster.
	Speedup float64 `json:"speedup"`
}

// Payoff is one entry of the cross-workload ranking.
type Payoff struct {
	Rank     int    `json:"rank"`
	Workload string `json:"workload"`
	Param    string `json:"param"`
	// HalvingGain is the fractional end-to-end time saved when the
	// parameter's cost is halved: 1 − elapsed(0.5×)/baseline.
	HalvingGain float64 `json:"halving_gain"`
}

// CrossCheck is one payoff-vs-share verdict: a component whose baseline
// critical-path share is X can buy at most about X·(1−f) when dialed to f —
// a gain meaningfully beyond that bound means the profiler attributed time
// to the wrong component, which is exactly the bug class the check exists
// to catch.
type CrossCheck struct {
	Param     string  `json:"param"`
	Component string  `json:"component"`
	Factor    float64 `json:"factor"`
	Gain      float64 `json:"gain"`
	Bound     float64 `json:"bound"`
	OK        bool    `json:"ok"`
}

// crossCheckSlack absorbs second-order effects (less queueing downstream of
// a cheaper stage, integer rounding of scaled costs) that can push a real
// gain slightly past the share bound without any attribution bug.
const crossCheckSlack = 0.05

// Run executes the sweep.
func Run(cfg Config) (*Report, error) {
	// The cost scale factors each parameter is dialed to.
	factors := []float64{0.25, 0.5, 2}
	names := cfg.Workloads
	if len(names) == 0 {
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	}
	rep := &Report{Workload: "whatif-sensitivity", Factors: roundAll(factors)}
	var payoffs []Payoff
	for _, name := range names {
		wl, ok := LookupWorkload(name)
		if !ok {
			return nil, fmt.Errorf("whatif: unknown workload %q", name)
		}
		wr, invErrs, err := runWorkload(wl, factors)
		if err != nil {
			return nil, err
		}
		for _, e := range invErrs {
			rep.InvariantErrs = append(rep.InvariantErrs, fmt.Sprintf("%s: %s", name, e))
		}
		for _, cc := range wr.CrossChecks {
			if !cc.OK {
				rep.Violations++
			}
		}
		for _, c := range wr.Curves {
			for _, pt := range c.Points {
				if pt.Factor == 0.5 {
					payoffs = append(payoffs, Payoff{
						Workload: wl.Name,
						Param:    c.Param,
						// round6 again: 1−x of a rounded value can pick up
						// float dust.
						HalvingGain: round6(1 - float64(pt.ElapsedNs)/float64(wr.BaselineNs)),
					})
				}
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.Violations += len(rep.InvariantErrs)

	sort.Slice(payoffs, func(i, j int) bool {
		a, b := payoffs[i], payoffs[j]
		if a.HalvingGain != b.HalvingGain {
			return a.HalvingGain > b.HalvingGain
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Param < b.Param
	})
	if len(payoffs) > 3 {
		payoffs = payoffs[:3]
	}
	for i := range payoffs {
		payoffs[i].Rank = i + 1
	}
	rep.TopPayoffs = payoffs

	if cfg.Obs != nil {
		for _, wr := range rep.Workloads {
			for _, c := range wr.Curves {
				for _, pt := range c.Points {
					if pt.Factor == 0.5 {
						g := cfg.Obs.Gauge(fmt.Sprintf("whatif.%s.%s.halving_gain", wr.Name, c.Param))
						g.Set(round6(1 - float64(pt.ElapsedNs)/float64(wr.BaselineNs)))
					}
				}
			}
		}
	}
	return rep, nil
}

// runWorkload measures one workload's baseline (timed and profiled) and its
// full parameter sweep.
func runWorkload(wl Workload, factors []float64) (WorkloadResult, []string, error) {
	base := wl.base(Defaults())

	// Unprofiled baseline: the timing reference every counterfactual is
	// compared against (profiling changes no virtual timing, but keeping
	// both arms unprofiled removes even the doubt).
	r0, err := wl.run(base, nil)
	if err != nil {
		return WorkloadResult{}, nil, fmt.Errorf("whatif: workload %s baseline: %w", wl.Name, err)
	}
	if r0.Ops == 0 || r0.ElapsedNs <= 0 {
		return WorkloadResult{}, nil, fmt.Errorf("whatif: workload %s baseline ran no work (ops=%d elapsed=%d)",
			wl.Name, r0.Ops, r0.ElapsedNs)
	}
	wr := WorkloadResult{Name: wl.Name, Ops: r0.Ops, BaselineNs: r0.ElapsedNs}

	// Profiled baseline: component shares along the critical paths of the
	// measured op roots, and the attribution-invariant check over the whole
	// span forest.
	shares, waitLayers, invErrs, err := profileShares(wl, base)
	if err != nil {
		return WorkloadResult{}, nil, fmt.Errorf("whatif: workload %s profiled baseline: %w", wl.Name, err)
	}
	wr.Shares = shares
	wr.WaitLayers = waitLayers

	for _, pname := range wl.Params {
		prm, ok := Lookup(pname)
		if !ok {
			return WorkloadResult{}, nil, fmt.Errorf("whatif: workload %s sweeps unknown parameter %q", wl.Name, pname)
		}
		curve := Curve{Param: pname, Component: prm.Component}
		for _, f := range factors {
			pp, err := Overrides{pname: f}.Apply(base)
			if err != nil {
				return WorkloadResult{}, nil, err
			}
			r, err := wl.run(pp, nil)
			if err != nil {
				return WorkloadResult{}, nil, fmt.Errorf("whatif: workload %s, %s at %vx: %w", wl.Name, pname, f, err)
			}
			if r.Ops != r0.Ops {
				invErrs = append(invErrs,
					fmt.Sprintf("param %s factor %v changed the work: %d ops vs %d baseline", pname, f, r.Ops, r0.Ops))
			}
			pt := Point{Factor: round6(f), ElapsedNs: r.ElapsedNs}
			if r.ElapsedNs > 0 {
				pt.Speedup = round6(float64(r0.ElapsedNs) / float64(r.ElapsedNs))
			}
			curve.Points = append(curve.Points, pt)
			if f < 1 && prm.Component != "" {
				gain := 1 - float64(r.ElapsedNs)/float64(r0.ElapsedNs)
				wr.CrossChecks = append(wr.CrossChecks, crossCheck(prm, f, gain, shares, waitLayers))
			}
		}
		wr.Curves = append(wr.Curves, curve)
	}
	return wr, invErrs, nil
}

// crossCheck applies the payoff-vs-share bound: dialing a component's unit
// cost to factor f can save at most (1−f) of the time the profiler
// attributed to that component on the critical path. Three terms shrink
// with the component:
//
//   - its direct share;
//   - wait charged to the component's own layer (queueing *for* the dialed
//     engine drains faster when the engine is faster);
//   - queue waits on other layers, scaled by the component's fraction of
//     non-wait service time: a slot wait is a convolution of other ops'
//     service, so it shrinks roughly as much as the service mix does. The
//     first sweep shipped without this term and the ramp workload promptly
//     flagged a legitimate 15% cpu gain as a violation — 49% of its
//     critical path is nvmefs slot waits concealing other ops' cpu time.
//
// A gain past the sum plus slack means the baseline profile
// under-attributed the component: an attribution bug.
func crossCheck(prm Parameter, f, gain float64, shares, waitLayers map[string]float64) CrossCheck {
	sameLayer := waitLayers[prm.Layer]
	queueWait := shares["wait"] - sameLayer
	if queueWait < 0 {
		queueWait = 0
	}
	serviceFrac := 0.0
	if nonWait := 1 - shares["wait"]; nonWait > 0 {
		serviceFrac = shares[prm.Component] / nonWait
	}
	shrinkable := shares[prm.Component] + sameLayer + queueWait*serviceFrac
	bound := round6((1-f)*shrinkable + crossCheckSlack)
	g := round6(gain)
	return CrossCheck{
		Param:     prm.Name,
		Component: prm.Component,
		Factor:    round6(f),
		Gain:      g,
		Bound:     bound,
		OK:        g <= bound,
	}
}

// profileShares runs the workload once with profiling enabled and reduces
// the OpSpan roots' critical paths to component shares plus a wait-by-layer
// split. It also runs prof.CheckInvariant over the full profile; a breach
// there means attribution itself is broken, which would invalidate every
// share the cross-check leans on.
func profileShares(wl Workload, base Params) (map[string]float64, map[string]float64, []string, error) {
	o := obs.New()
	o.EnableProfiling()
	r, err := wl.run(base, o)
	if err != nil {
		return nil, nil, nil, err
	}
	spans := o.Tracer().Export(sim.Time(r.EndNs))
	pr := prof.Analyze(spans)

	var invErrs []string
	for _, err := range pr.CheckInvariant() {
		invErrs = append(invErrs, err.Error())
	}

	var attr prof.Attr
	layerNs := map[string]int64{}
	for _, root := range pr.Roots {
		if root.Data.Name != OpSpan {
			continue
		}
		segs := pr.CriticalPath(root)
		attr.AddAttr(prof.CPAttr(segs))
		for _, sg := range segs {
			if sg.Comp != "wait" || sg.Kind == "" {
				continue
			}
			layer := sg.Kind
			if i := strings.IndexByte(layer, '.'); i >= 0 {
				layer = layer[:i]
			}
			layerNs[layer] += sg.Ns
		}
	}
	total := attr.Sum()
	shares := map[string]float64{}
	waitLayers := map[string]float64{}
	if total > 0 {
		for comp, ns := range attr.Map() {
			shares[comp] = round6(float64(ns) / float64(total))
		}
		for layer, ns := range layerNs {
			waitLayers[layer] = round6(float64(ns) / float64(total))
		}
	}
	return shares, waitLayers, invErrs, nil
}

// round6 quantizes to 6 decimal places for byte-stable JSON.
func round6(f float64) float64 {
	if f < 0 {
		return -float64(int64(-f*1e6+0.5)) / 1e6
	}
	return float64(int64(f*1e6+0.5)) / 1e6
}

func roundAll(fs []float64) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = round6(f)
	}
	return out
}
