package prof

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Report is the digestible summary of a profile: per-op critical-path
// attribution, the wait-kind taxonomy, transport-group shares, and a top-K
// slowest-op digest. JSON marshalling is byte-stable (sorted map keys,
// deterministic float formatting over integer inputs).
type Report struct {
	SimTimeNs        int64 `json:"sim_time_ns"`
	Spans            int   `json:"spans"`
	Roots            int   `json:"roots"`
	Anomalies        int   `json:"anomalies"`
	DroppedSpans     int64 `json:"dropped_spans"`
	DroppedIntervals int64 `json:"dropped_intervals"`

	// Components sums self-attributed time per component over every span —
	// the whole-trace "where did simulated work go" view (concurrent time
	// counts once per span, so this is resource-time, not wall time).
	Components map[string]int64 `json:"components"`

	// WaitKinds breaks the wait component down by queue/lock/slot kind.
	WaitKinds map[string]int64 `json:"wait_kinds"`

	// Ops aggregates critical-path attribution per root-span name.
	Ops []OpStat `json:"ops"`

	// Groups rolls Ops up by the name's first dot-segment (nvmefs, virtio,
	// client, ...): the Figure 2(b)/4 transport-share comparison.
	Groups []GroupStat `json:"groups"`

	// Top lists the K slowest root spans with their critical paths.
	Top []TopOp `json:"top"`
}

// OpStat is critical-path attribution aggregated over all roots sharing a
// span name.
type OpStat struct {
	Op           string           `json:"op"`
	Count        int64            `json:"count"`
	TotalNs      int64            `json:"total_ns"`
	MeanNs       int64            `json:"mean_ns"`
	MaxNs        int64            `json:"max_ns"`
	Attr         map[string]int64 `json:"attr"`
	DMAWaitShare float64          `json:"dma_wait_share"`
}

// GroupStat is OpStat rolled up by name prefix.
type GroupStat struct {
	Group        string           `json:"group"`
	Count        int64            `json:"count"`
	TotalNs      int64            `json:"total_ns"`
	Attr         map[string]int64 `json:"attr"`
	DMAWaitShare float64          `json:"dma_wait_share"`
}

// TopOp is one slow root span with its serial bounding chain.
type TopOp struct {
	Op       string    `json:"op"`
	StartNs  int64     `json:"start_ns"`
	DurNs    int64     `json:"dur_ns"`
	Segments []Segment `json:"segments"`
}

// BuildReport computes critical paths for every root span and aggregates
// them. simTime stamps the snapshot horizon; droppedSpans/droppedIntervals
// come from the tracer so truncated traces are visibly truncated.
func BuildReport(pr *Profile, simTimeNs, droppedSpans, droppedIntervals int64, topK int) *Report {
	r := &Report{
		SimTimeNs:        simTimeNs,
		Spans:            len(pr.Spans),
		Roots:            len(pr.Roots),
		Anomalies:        pr.Anomalies,
		DroppedSpans:     droppedSpans,
		DroppedIntervals: droppedIntervals,
		Components:       map[string]int64{},
		WaitKinds:        pr.WaitKinds,
	}
	var whole Attr
	for _, n := range pr.Spans {
		whole.AddAttr(n.Self)
	}
	r.Components = whole.Map()

	type opAgg struct {
		attr  Attr
		count int64
		maxNs int64
	}
	ops := map[string]*opAgg{}
	type rootPath struct {
		root *Span
		segs []Segment
	}
	paths := make([]rootPath, 0, len(pr.Roots))
	for _, root := range pr.Roots {
		segs := pr.CriticalPath(root)
		paths = append(paths, rootPath{root, segs})
		a := ops[root.Data.Name]
		if a == nil {
			a = &opAgg{}
			ops[root.Data.Name] = a
		}
		a.attr.AddAttr(CPAttr(segs))
		a.count++
		if d := root.Dur(); d > a.maxNs {
			a.maxNs = d
		}
	}

	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	groups := map[string]*opAgg{}
	for _, name := range names {
		a := ops[name]
		total := a.attr.Sum()
		r.Ops = append(r.Ops, OpStat{
			Op:           name,
			Count:        a.count,
			TotalNs:      total,
			MeanNs:       total / a.count,
			MaxNs:        a.maxNs,
			Attr:         a.attr.Map(),
			DMAWaitShare: roundShare(a.attr.DMAWaitShare()),
		})
		g := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			g = name[:i]
		}
		ga := groups[g]
		if ga == nil {
			ga = &opAgg{}
			groups[g] = ga
		}
		ga.attr.AddAttr(a.attr)
		ga.count += a.count
	}
	gnames := make([]string, 0, len(groups))
	for g := range groups {
		gnames = append(gnames, g)
	}
	sort.Strings(gnames)
	for _, g := range gnames {
		ga := groups[g]
		r.Groups = append(r.Groups, GroupStat{
			Group:        g,
			Count:        ga.count,
			TotalNs:      ga.attr.Sum(),
			Attr:         ga.attr.Map(),
			DMAWaitShare: roundShare(ga.attr.DMAWaitShare()),
		})
	}

	// Top-K slowest roots; ties break by (start, id) so the digest is
	// stable across runs.
	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i].root, paths[j].root
		if a.Dur() != b.Dur() {
			return a.Dur() > b.Dur()
		}
		if a.Data.Start != b.Data.Start {
			return a.Data.Start < b.Data.Start
		}
		return a.Data.ID < b.Data.ID
	})
	if topK > len(paths) {
		topK = len(paths)
	}
	for _, p := range paths[:topK] {
		r.Top = append(r.Top, TopOp{
			Op:       p.root.Data.Name,
			StartNs:  int64(p.root.Data.Start),
			DurNs:    p.root.Dur(),
			Segments: p.segs,
		})
	}
	return r
}

// roundShare quantizes a share to 6 decimal places so that JSON output is
// trivially byte-stable and diffs stay readable.
func roundShare(f float64) float64 {
	return float64(int64(f*1e6+0.5)) / 1e6
}

// JSON renders the report as indented, byte-stable JSON.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Group returns the named group's stats, or nil.
func (r *Report) Group(name string) *GroupStat {
	for i := range r.Groups {
		if r.Groups[i].Group == name {
			return &r.Groups[i]
		}
	}
	return nil
}

// Op returns the named op's stats, or nil.
func (r *Report) Op(name string) *OpStat {
	for i := range r.Ops {
		if r.Ops[i].Op == name {
			return &r.Ops[i]
		}
	}
	return nil
}

// componentCols is the fixed column order for text tables.
var componentCols = []string{"cpu", "dma", "mmio", "ssd", "wait", "other"}

// Text renders the report as human-readable tables (the cmd/dpcreport and
// dpcbench -prof-out console view).
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d spans, %d roots, sim time %s\n",
		r.Spans, r.Roots, fmtNs(r.SimTimeNs))
	if r.DroppedSpans > 0 {
		fmt.Fprintf(&b, "WARNING: trace truncated (%d spans dropped over the cap)\n", r.DroppedSpans)
	}
	if r.DroppedIntervals > 0 {
		fmt.Fprintf(&b, "note: %d attributed intervals fell outside any span (background work)\n",
			r.DroppedIntervals)
	}
	if r.Anomalies > 0 {
		fmt.Fprintf(&b, "WARNING: %d spans with attribution anomalies\n", r.Anomalies)
	}

	b.WriteString("\n== critical-path attribution by op (ns) ==\n")
	fmt.Fprintf(&b, "%-22s %7s %12s %12s", "op", "count", "total", "mean")
	for _, c := range componentCols {
		fmt.Fprintf(&b, " %10s", c)
	}
	fmt.Fprintf(&b, " %9s\n", "dma+wait")
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "%-22s %7d %12d %12d", op.Op, op.Count, op.TotalNs, op.MeanNs)
		for _, c := range componentCols {
			fmt.Fprintf(&b, " %10d", op.Attr[c])
		}
		fmt.Fprintf(&b, " %8.2f%%\n", op.DMAWaitShare*100)
	}

	b.WriteString("\n== transport groups ==\n")
	fmt.Fprintf(&b, "%-10s %7s %12s", "group", "count", "total")
	for _, c := range componentCols {
		fmt.Fprintf(&b, " %10s", c)
	}
	fmt.Fprintf(&b, " %9s\n", "dma+wait")
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%-10s %7d %12d", g.Group, g.Count, g.TotalNs)
		for _, c := range componentCols {
			fmt.Fprintf(&b, " %10d", g.Attr[c])
		}
		fmt.Fprintf(&b, " %8.2f%%\n", g.DMAWaitShare*100)
	}

	if len(r.WaitKinds) > 0 {
		b.WriteString("\n== wait kinds (ns) ==\n")
		kinds := make([]string, 0, len(r.WaitKinds))
		for k := range r.WaitKinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%-24s %12d\n", k, r.WaitKinds[k])
		}
	}

	if len(r.Top) > 0 {
		fmt.Fprintf(&b, "\n== top %d slowest ops ==\n", len(r.Top))
		for i, t := range r.Top {
			fmt.Fprintf(&b, "#%d %s start=%dns dur=%s\n", i+1, t.Op, t.StartNs, fmtNs(t.DurNs))
			for _, sg := range t.Segments {
				kind := sg.Kind
				if kind != "" {
					kind = " [" + kind + "]"
				}
				fmt.Fprintf(&b, "    %-22s %-14s %-6s%-20s %10d\n",
					sg.Span, sg.Proc, sg.Comp, kind, sg.Ns)
			}
		}
	}
	return b.String()
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.3fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
