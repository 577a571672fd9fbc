package main

import (
	"fmt"
	"os"

	"dpc/internal/exp"
	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
)

// profiledReference runs the profiled reference workload (the SSD-backed
// 8 KB Figure 2(b)/4 walks on both transports plus the cached KVFS mix —
// see exp.ProfiledReference) and returns the analyzed profile.
func profiledReference() (*obs.Obs, *prof.Profile, sim.Time, error) {
	o, now, err := exp.ProfiledReference()
	if err != nil {
		return nil, nil, 0, err
	}
	return o, prof.Analyze(o.Tracer().Export(now)), now, nil
}

// runProfScenario is the -prof-out workload: the profiled reference run,
// rendered as attribution tables on stdout and a byte-stable JSON report,
// plus optional collapsed stacks and the profiled trace/snapshot pair that
// feeds cmd/dpcreport offline.
func runProfScenario(profPath, foldedPath, tracePath, metricsPath string) error {
	o, pr, now, err := profiledReference()
	if err != nil {
		return err
	}
	rep := prof.BuildReport(pr, int64(now), o.Tracer().Dropped(), o.Tracer().DroppedIntervals(), 10)
	fmt.Print(rep.Text())
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(profPath, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote profile report to %s (%d spans, %d anomalies)\n", profPath, rep.Spans, rep.Anomalies)
	if foldedPath != "" {
		if err := os.WriteFile(foldedPath, prof.FoldedStacks(pr), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote folded stacks to %s\n", foldedPath)
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, o.Tracer().Perfetto(now), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote profiled trace to %s (%d spans)\n", tracePath, o.Tracer().SpanCount())
	}
	if metricsPath != "" {
		// Obs.SnapshotJSON under profiling adds tracer health (dropped
		// spans/intervals, series counts) on top of the registry snapshot.
		sb, err := o.SnapshotJSON(now)
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsPath, sb, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote profiled metrics snapshot to %s\n", metricsPath)
	}
	return nil
}

// attrSummary is the attribution block embedded in BENCH_5.json: the
// reference-workload transport comparison the paper's Figure 2(b)/4 makes —
// which share of each transport's critical-path time is DMA+MMIO+wait
// rather than useful work.
type attrSummary struct {
	SimTimeNs int64            `json:"sim_time_ns"`
	Spans     int              `json:"spans"`
	Anomalies int              `json:"anomalies"`
	Groups    []prof.GroupStat `json:"groups"`
	WaitKinds map[string]int64 `json:"wait_kinds"`
}

// benchReport is the BENCH_5 shape.
type benchReport struct {
	largeIOReport
	Attribution attrSummary `json:"attribution"`
}

// runBenchOut writes BENCH_5.json: the serial-vs-pipelined large-I/O
// comparison plus the attribution summary from the profiled reference run.
func runBenchOut(outPath string) error {
	_, pr, now, err := profiledReference()
	if err != nil {
		return err
	}
	rep := prof.BuildReport(pr, int64(now), 0, 0, 0)
	large, err := buildLargeIOReport()
	if err != nil {
		return err
	}
	if err := writeJSON(outPath, benchReport{large, attrSummary{
		SimTimeNs: rep.SimTimeNs,
		Spans:     rep.Spans,
		Anomalies: rep.Anomalies,
		Groups:    rep.Groups,
		WaitKinds: rep.WaitKinds,
	}}); err != nil {
		return err
	}
	nv, vi := rep.Group("nvmefs"), rep.Group("virtio")
	if nv != nil && vi != nil {
		fmt.Printf("wrote bench report to %s (dma+wait share: nvme-fs %.2f%%, virtio-fs %.2f%%)\n",
			outPath, nv.DMAWaitShare*100, vi.DMAWaitShare*100)
	} else {
		fmt.Printf("wrote bench report to %s\n", outPath)
	}
	return nil
}
