package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dpc/internal/telemetry"
)

// showTimeline renders a telemetry timeline: the continuous virtual-time
// metric series, the SLO ledger with burn rates, and the flight-recorder
// dumps taken at SLO violations and fault events. Without a view flag it
// prints the overview.
//
// The tenant views read the t<N>. metric prefix convention of multi-tenant
// runs (`dpcbench -fleet-timeline-out`): a series belongs to tenant N when
// its metric starts with "t<N>." or has a ".t<N>." component.
func showTimeline(tl *telemetry.Timeline) error {
	switch {
	case *series:
		listSeries(tl, func(string) bool { return true })
	case *tenant >= 0:
		listSeries(tl, func(name string) bool { return tenantOf(name) == *tenant })
	case *tenants:
		tenantTable(tl)
	case *walView:
		walSummary(tl)
	case *col != "":
		return printColumn(tl, *col)
	case *dump >= 0:
		return showDump(tl, *dump)
	default:
		overview(tl)
	}
	return nil
}

// tenantOf extracts the t<N>. metric-prefix tenant from a series name
// ("t3.client.read.latency:p99", "nvmefs.t3.dispatched:rate"), -1 when the
// series is not tenant-scoped.
func tenantOf(name string) int {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	for _, part := range strings.Split(name, ".") {
		if len(part) > 1 && part[0] == 't' {
			if n, err := strconv.Atoi(part[1:]); err == nil && n >= 0 {
				return n
			}
		}
	}
	return -1
}

// maxValue returns the largest sample of a column (0 when absent or empty).
func maxValue(tl *telemetry.Timeline, name string) float64 {
	max := 0.0
	for _, v := range tl.Series.Columns[name] {
		if v > max {
			max = v
		}
	}
	return max
}

// tenantTable prints one row per tenant: the worst-window read-latency
// quantiles of its t<N>.client.read.latency histogram side by side (the
// quantile columns are windowed, so the max over ticks is the worst sampling
// window — idle trailing windows report zero and never win), plus the
// scheduler's peak queue depth and shed rate for the tenant.
func tenantTable(tl *telemetry.Timeline) {
	tenants := map[int]bool{}
	for name := range tl.Series.Columns {
		if t := tenantOf(name); t >= 0 {
			tenants[t] = true
		}
	}
	if len(tenants) == 0 {
		fmt.Println("no tenant-scoped series (t<N>. prefix) in this timeline")
		return
	}
	ids := make([]int, 0, len(tenants))
	for t := range tenants {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	fmt.Printf("%-7s %-10s %-10s %-10s %-10s %-10s\n",
		"tenant", "read_p50", "read_p99", "read_p999", "peak_queue", "peak_shed/s")
	for _, t := range ids {
		read := fmt.Sprintf("t%d.client.read.latency", t)
		fmt.Printf("t%-6d %-10s %-10s %-10s %-10.0f %-10.0f\n", t,
			fmtNs(int64(maxValue(tl, read+":p50"))),
			fmtNs(int64(maxValue(tl, read+":p99"))),
			fmtNs(int64(maxValue(tl, read+":p999"))),
			maxValue(tl, fmt.Sprintf("nvmefs.t%d.queued:last", t)),
			maxValue(tl, fmt.Sprintf("nvmefs.t%d.shed:rate", t)))
	}
}

// counterTotal integrates a counter's :rate column (events/second sampled
// every IntervalNs) back into a run total.
func counterTotal(tl *telemetry.Timeline, name string) int64 {
	sum := 0.0
	for _, v := range tl.Series.Columns[name+":rate"] {
		sum += v * float64(tl.Series.IntervalNs) / 1e9
	}
	// Window rates are exact in virtual time, so the integral is too; round
	// to kill float residue only.
	return int64(sum + 0.5)
}

// walSummary summarizes the wal.* metric family of a WAL-enabled run: how much
// was journaled, how well group commit amortized barriers, whether replay
// ever saw damage, and how long recovery took — then lists the raw series.
func walSummary(tl *telemetry.Timeline) {
	any := false
	for name := range tl.Series.Columns {
		if strings.HasPrefix(name, "wal.") {
			any = true
			break
		}
	}
	if !any {
		fmt.Println("no wal.* series in this timeline (WAL-disabled run?)")
		return
	}
	appends := counterTotal(tl, "wal.appends")
	commits := counterTotal(tl, "wal.commits")
	bytes := counterTotal(tl, "wal.bytes")
	fmt.Printf("group commit: %d records in %d commits (%d bytes journaled)\n",
		appends, commits, bytes)
	if commits > 0 {
		fmt.Printf("amortization: %.2f records/barrier, peak group size %.0f\n",
			float64(appends)/float64(commits), maxValue(tl, "wal.group_size:last"))
	}
	fmt.Printf("checkpoints:  %d\n", counterTotal(tl, "wal.checkpoints"))

	replayed := counterTotal(tl, "wal.replayed")
	torn := counterTotal(tl, "wal.torn_tails")
	stale := counterTotal(tl, "wal.skipped_stale")
	if replayed+torn+stale > 0 {
		fmt.Printf("recovery:     %d pages replayed, %d stale skipped, %d torn tails\n",
			replayed, stale, torn)
	}
	if recNs := maxValue(tl, "wal.recovery_ns:last"); recNs > 0 {
		fmt.Printf("recovery time: %s (wal.recovery_ns gauge)\n", fmtNs(int64(recNs)))
	}
	fmt.Println()
	listSeries(tl, func(name string) bool { return strings.HasPrefix(name, "wal.") })
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func overview(tl *telemetry.Timeline) {
	fmt.Printf("timeline: %s of virtual time, %d ticks every %s, %d series\n",
		fmtNs(tl.SimTimeNs), tl.Series.Ticks, fmtNs(tl.Series.IntervalNs), len(tl.Series.Columns))
	fmt.Printf("recorder: %d spans through the ring, %d pinned trees retained\n\n",
		tl.RecorderSpans, tl.PinnedTrees)

	if len(tl.SLOs) == 0 {
		fmt.Println("no objectives attached")
	}
	for _, s := range tl.SLOs {
		status := "OK"
		if s.Violations > 0 {
			status = "BURNING"
		}
		fmt.Printf("slo %-48s %s\n", s.Spec, status)
		fmt.Printf("    windows %d  violations %d  burn rate %.3f\n", s.Windows, s.Violations, s.BurnRate)
	}

	if len(tl.Violations) > 0 {
		// Past the retained list's cap the pipeline only counts; say so.
		if tl.DroppedViolations > 0 {
			fmt.Printf("\nviolations (%d, %d dropped):\n", len(tl.Violations), tl.DroppedViolations)
		} else {
			fmt.Printf("\nviolations (%d):\n", len(tl.Violations))
		}
		n := min(len(tl.Violations), 20)
		for _, v := range tl.Violations[:n] {
			fmt.Printf("  t=%-10s observed %-10s (%d samples)  %s\n",
				fmtNs(v.TimeNs), fmtNs(v.ObservedNs), v.Samples, v.Spec)
		}
		if len(tl.Violations) > n {
			fmt.Printf("  ... %d more\n", len(tl.Violations)-n)
		}
	}

	if len(tl.Dumps) > 0 {
		fmt.Printf("\nflight-recorder dumps (%d, %d dropped):\n", len(tl.Dumps), tl.DroppedDumps)
		for i, d := range tl.Dumps {
			fmt.Printf("  [%d] t=%-10s %-36s window %-8s %d spans\n",
				i, fmtNs(d.TimeNs), d.Reason, fmtNs(d.WindowNs), len(d.Spans))
		}
		fmt.Println("\nuse -dump <n> for a dump's causal trace and critical-path report")
	}
}

func listSeries(tl *telemetry.Timeline, keep func(string) bool) {
	var names []string
	for _, k := range sortedKeys(tl.Series.Columns) {
		if keep(k) {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		fmt.Println("no matching series")
		return
	}
	for _, name := range names {
		col := tl.Series.Columns[name]
		if len(col) == 0 {
			fmt.Printf("%-48s (empty)\n", name)
			continue
		}
		lo, hi := col[0], col[0]
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Printf("%-48s %d samples  min %g  max %g\n", name, len(col), lo, hi)
	}
}

func printColumn(tl *telemetry.Timeline, name string) error {
	col, ok := tl.Series.Columns[name]
	if !ok {
		return fmt.Errorf("no series %q (try -series)", name)
	}
	for i, v := range col {
		if i < len(tl.Series.TimesNs) {
			fmt.Printf("%d\t%g\n", tl.Series.TimesNs[i], v)
		}
	}
	return nil
}

func showDump(tl *telemetry.Timeline, idx int) error {
	if idx >= len(tl.Dumps) {
		return fmt.Errorf("dump %d of %d", idx, len(tl.Dumps))
	}
	d := tl.Dumps[idx]
	fmt.Printf("dump %d: t=%s reason=%s window=%s spans=%d\n\n",
		idx, fmtNs(d.TimeNs), d.Reason, fmtNs(d.WindowNs), len(d.Spans))

	// Root spans with child counts, slowest first.
	children := map[uint64]int{}
	byID := map[uint64]bool{}
	for _, s := range d.Spans {
		byID[s.ID] = true
	}
	for _, s := range d.Spans {
		if byID[s.Parent] {
			children[s.Parent]++
		}
	}
	type root struct {
		name  string
		dur   int64
		start int64
		kids  int
	}
	var roots []root
	for _, s := range d.Spans {
		if !byID[s.Parent] {
			roots = append(roots, root{s.Name, s.EndNs - s.StartNs, s.StartNs, children[s.ID]})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].dur != roots[j].dur {
			return roots[i].dur > roots[j].dur
		}
		return roots[i].start < roots[j].start
	})
	n := min(len(roots), 15)
	fmt.Printf("slowest roots (%d of %d):\n", n, len(roots))
	for _, r := range roots[:n] {
		fmt.Printf("  %-24s %-10s at %-10s %d direct children\n",
			r.name, fmtNs(r.dur), fmtNs(r.start), r.kids)
	}

	// The embedded critical-path report.
	if rep := d.Report; rep != nil {
		fmt.Println("\ncritical-path attribution (component totals):")
		for _, c := range sortedKeys(rep.Components) {
			fmt.Printf("  %-8s %s\n", c, fmtNs(rep.Components[c]))
		}
		if len(rep.Ops) > 0 {
			fmt.Println("\nper-op critical paths:")
			for _, op := range rep.Ops {
				fmt.Printf("  %-24s n=%-6d mean %-10s max %s\n",
					op.Op, op.Count, fmtNs(op.MeanNs), fmtNs(op.MaxNs))
			}
		}
	}
	return nil
}
