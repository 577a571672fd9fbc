package main

import (
	"fmt"
	"os"

	"dpc/internal/exp"
	"dpc/internal/obs"
)

// runMetricsScenario is the -metrics-out workload: a fixed, fully
// instrumented reference run whose snapshot is machine-readable and
// byte-stable across invocations. It plays the Figure 2(b)/4 8 KB DMA walks
// on both transports (recording per-transport DMA counts — DMAs only, the
// doorbell MMIO is tallied separately under pcie.link.mmios) and then a
// cached KVFS read/write mix that exercises the hybrid cache, the flush
// daemon and the full client → nvme-fs → dispatch → KVFS span tree (the
// RAM-backed exp.NvmeWalk / exp.VirtioWalk and exp.CachedMix).
//
// The metrics snapshot goes to metricsPath; when tracePath is non-empty the
// span tree is also written as Perfetto / Chrome trace-event JSON.
func runMetricsScenario(metricsPath, tracePath string) error {
	o := obs.New()

	nv, err := exp.NvmeWalk(o, 8192, false)
	if err != nil {
		return err
	}
	wd, rd := nv.DMAs()
	o.Counter("trace.nvmefs.write.dmas").Add(wd)
	o.Counter("trace.nvmefs.read.dmas").Add(rd)
	vi, err := exp.VirtioWalk(o, 8192, false)
	if err != nil {
		return err
	}
	wd, rd = vi.DMAs()
	o.Counter("trace.virtiofs.write.dmas").Add(wd)
	o.Counter("trace.virtiofs.read.dmas").Add(rd)

	now, err := exp.CachedMix(o)
	if err != nil {
		return err
	}

	reg := o.Registry()
	hits := reg.CounterValue("cache.host.hits")
	misses := reg.CounterValue("cache.host.misses")
	if total := hits + misses; total > 0 {
		reg.Gauge("cache.host.hit_ratio").Set(float64(hits) / float64(total))
	}

	// Obs.SnapshotJSON matches Registry.SnapshotJSON byte-for-byte here
	// (profiling is off, so no tracer-health fields are added).
	b, err := o.SnapshotJSON(now)
	if err != nil {
		return err
	}
	if err := os.WriteFile(metricsPath, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote metrics snapshot to %s (%d counters, %d gauges, %d histograms)\n",
		metricsPath, len(reg.Snapshot(now).Counters), len(reg.Snapshot(now).Gauges),
		len(reg.Snapshot(now).Histograms))

	if tracePath != "" {
		if err := os.WriteFile(tracePath, o.Tracer().Perfetto(now), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Perfetto trace to %s (%d spans)\n", tracePath, o.Tracer().SpanCount())
	}
	return nil
}
