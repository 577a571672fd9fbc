package main

import (
	"fmt"
	"os"
	"strings"

	"dpc/internal/obs"
	"dpc/internal/prof"
)

// topK is how many slowest root spans the trace report details.
const topK = 10

// showTrace analyzes a Perfetto/Chrome trace offline: it rebuilds the span
// tree, runs the critical-path profiler over it, and prints per-op
// attribution tables, transport-group shares, the wait-kind taxonomy and a
// top-K slow-op digest — or, with -json, the same report as byte-stable JSON,
// or with -folded the collapsed stacks. With -metrics the snapshot supplies
// the sim time and tracer drop counts, and the tables gain its queue-depth
// gauges, latency quantiles and tracer health. The analysis is pure integer
// arithmetic over virtual time: the same trace always renders byte-identical
// output, so reports diff cleanly across code changes.
func showTrace(raw []byte) error {
	spans, err := prof.ParsePerfetto(raw)
	if err != nil {
		return err
	}
	pr := prof.Analyze(spans)
	if *folded {
		_, err := os.Stdout.Write(prof.FoldedStacks(pr))
		return err
	}

	var simTime, droppedSpans, droppedIvs int64
	for _, s := range pr.Spans {
		simTime = max(simTime, int64(s.Data.End))
	}
	var snap *obs.Snapshot
	if *metricsPath != "" {
		mraw, typ, err := load(*metricsPath)
		if err != nil {
			return err
		}
		if typ != "metrics" {
			return fmt.Errorf("-metrics %s: a %s, not a metrics snapshot", *metricsPath, typ)
		}
		if snap, err = decode[obs.Snapshot](mraw); err != nil {
			return err
		}
		simTime = snap.SimTimeNs
		if snap.TracerDropped != nil {
			droppedSpans = *snap.TracerDropped
		}
		droppedIvs = snap.Series["dropped_intervals"]
	}

	rep := prof.BuildReport(pr, simTime, droppedSpans, droppedIvs, topK)
	if *jsonOut {
		b, err := rep.JSON()
		if err == nil {
			_, err = os.Stdout.Write(b)
		}
		return err
	}
	fmt.Print(rep.Text())
	if snap != nil {
		printSnapshotExtras(snap)
	}
	return nil
}

// printSnapshotExtras surfaces the profiler-relevant slices of the metrics
// snapshot: per-queue SQ depth gauges and latency quantiles.
func printSnapshotExtras(snap *obs.Snapshot) {
	var depthKeys []string
	for _, k := range sortedKeys(snap.Gauges) {
		if strings.Contains(k, ".sq_depth") {
			depthKeys = append(depthKeys, k)
		}
	}
	if len(depthKeys) > 0 {
		fmt.Println("\n== queue depth gauges ==")
		for _, k := range depthKeys {
			fmt.Printf("%-24s %10.0f\n", k, snap.Gauges[k])
		}
	}

	if len(snap.Histograms) > 0 {
		fmt.Println("\n== latency quantiles (ns) ==")
		fmt.Printf("%-28s %9s %12s %12s %12s %12s\n", "histogram", "count", "p50", "p95", "p99", "max")
		for _, k := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[k]
			fmt.Printf("%-28s %9d %12d %12d %12d %12d\n", k, h.Count,
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.MaxNs)
		}
	}

	if len(snap.Series) > 0 {
		fmt.Println("\n== tracer health ==")
		for _, k := range sortedKeys(snap.Series) {
			fmt.Printf("%-24s %10d\n", k, snap.Series[k])
		}
	}
}
