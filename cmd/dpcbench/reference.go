package main

import (
	"fmt"
	"os"

	"dpc/internal/exp"
	"dpc/internal/obs"
	"dpc/internal/prof"
)

// referenceOut names the artifacts of the reference scenario; an empty path
// is not written.
type referenceOut struct {
	metrics string // metrics snapshot with tracer health (BENCH_metrics)
	trace   string // Perfetto / Chrome trace-event JSON (BENCH_trace)
	prof    string // critical-path report; its tables go to stdout
	folded  string // collapsed stacks (flamegraph.pl / speedscope input)
	bench   string // large-I/O comparison plus attribution (BENCH_5)
}

// runReferenceScenario runs the profiled reference workload once — the
// SSD-backed 8 KB Figure 2(b)/4 walks on both transports plus the cached
// KVFS mix, see exp.ProfiledReference — and writes every artifact asked
// for from that one run, so the trace dpcreport reads offline is the one
// the committed attribution was computed from.
func runReferenceScenario(out referenceOut) error {
	var large largeIOReport
	if out.bench != "" {
		var err error
		if large, err = buildLargeIOReport(); err != nil {
			return err
		}
	}
	o := obs.New()
	ref, err := exp.ProfiledReference(o)
	if err != nil {
		return err
	}
	now, tr := ref.Now, o.Tracer()
	if out.metrics != "" {
		b, err := o.SnapshotJSON(now)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.metrics, b, 0o644); err != nil {
			return err
		}
		s := o.Registry().Snapshot(now)
		fmt.Printf("wrote metrics snapshot to %s (%d counters, %d gauges, %d histograms)\n",
			out.metrics, len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	if out.trace != "" {
		if err := os.WriteFile(out.trace, tr.Perfetto(now), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Perfetto trace to %s (%d spans)\n", out.trace, tr.SpanCount())
	}
	pr := prof.Analyze(tr.Export(now))
	if out.prof != "" {
		rep := prof.BuildReport(pr, int64(now), tr.Dropped(), tr.DroppedIntervals(), 10)
		fmt.Print(rep.Text())
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.prof, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote profile report to %s (%d spans, %d anomalies)\n", out.prof, rep.Spans, rep.Anomalies)
	}
	if out.folded != "" {
		if err := os.WriteFile(out.folded, prof.FoldedStacks(pr), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote folded stacks to %s\n", out.folded)
	}
	if out.bench != "" {
		return writeBenchReport(out.bench, large, prof.BuildReport(pr, int64(now), 0, 0, 0))
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

// newAttrSummary takes BENCH_5's attribution block from a report.
func newAttrSummary(rep *prof.Report) attrSummary {
	return attrSummary{
		SimTimeNs: rep.SimTimeNs,
		Spans:     rep.Spans,
		Anomalies: rep.Anomalies,
		Groups:    rep.Groups,
		WaitKinds: rep.WaitKinds,
	}
}

// benchReport is the BENCH_5 shape.
type benchReport struct {
	largeIOReport
	Attribution attrSummary `json:"attribution"`
}

// writeBenchReport writes BENCH_5.json: the serial-vs-pipelined large-I/O
// comparison plus the attribution summary of the profiled reference run.
func writeBenchReport(outPath string, large largeIOReport, rep *prof.Report) error {
	if err := writeJSON(outPath, benchReport{large, newAttrSummary(rep)}); err != nil {
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
