package main

import (
	"fmt"

	"dpc/internal/whatif"
)

// runWhatifScenario is the -whatif-out workload: a causal sensitivity sweep
// over the smallio and fsync reference workloads. Each registered parameter
// (DMA setup, per-byte costs, MMIO, SSD write/barrier latency, cpu cycle
// scale, WAL group window, ...) is dialed to 0.25x/0.5x/2x under identical
// seeds and the end-to-end speedup curve is recorded, then the 0.5x gains
// are cross-checked against the profiler's critical-path component shares:
// a component with share X can buy at most ~X/2 by halving, so a gain past
// the bound is an attribution bug, counted in `violations`.
// The JSON report (BENCH_10 shape) is byte-stable across runs, so it is
// committed and `make bench-identical` gates it, violations count included
// (one standing, DESIGN.md §13).
func runWhatifScenario(outPath string) error {
	// The default sweep: the two fast reference workloads (smallio exercises
	// the pcie/cpu knobs, fsync the ssd/wal knobs), covering seven distinct
	// parameters between them while keeping the sweep quick enough for the
	// `make check` gate.
	rep, err := writeReport(outPath, func() (*whatif.Report, error) {
		return whatif.Run(whatif.Config{Workloads: []string{"smallio", "fsync"}})
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote what-if sensitivity report to %s (%d workloads, %d violations)\n",
		outPath, len(rep.Workloads), rep.Violations)
	for _, p := range rep.TopPayoffs {
		fmt.Printf("  payoff #%d: %s/%s halving gain %.1f%%\n",
			p.Rank, p.Workload, p.Param, p.HalvingGain*100)
	}
	return nil
}
