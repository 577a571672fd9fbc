// Command dpcbench reproduces the paper's evaluation tables and figures.
//
// Usage:
//
//	dpcbench                 # run every experiment at full scale
//	dpcbench -run fig6,fig7  # run selected experiments
//	dpcbench -quick          # shorter windows / fewer sweep points
//	dpcbench -list           # list experiment IDs
//	dpcbench -env            # print the simulated testbed (Table 1)
//	dpcbench -walk           # print the 8 KB PCIe walks of Figures 2(b) and 4
//	dpcbench -metrics-out m.json -trace-out t.json -prof-out p.json -folded-out f.txt
//	                         # run the profiled reference workload once and
//	                         # write any of: its metrics snapshot, its
//	                         # Perfetto trace, the critical-path report
//	                         # (tables on stdout) and collapsed stacks for
//	                         # flamegraphs
//	dpcbench -smallio-out s.json
//	                         # run the small-op direct workload, DMA vs
//	                         # inline submission, and write the latency/DMA
//	                         # comparison as JSON
//	dpcbench -whatif-out w.json
//	                         # run the causal what-if sensitivity sweep:
//	                         # counterfactual parameter dials at 0.25x/0.5x/2x
//	                         # with payoff ranking and payoff-vs-share
//	                         # cross-checks, written as JSON
//	dpcbench -bench-out BENCH_5.json
//	                         # write the large-I/O comparison plus the
//	                         # reference run's attribution summary (the same
//	                         # run as the flags above when combined)
//
// The scenario flags combine: one invocation runs every scenario whose flag
// is set. A scenario that fails writes nothing and the process exits
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpc/internal/exp"
	"dpc/internal/model"
)

func main() {
	var (
		runIDs = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick  = flag.Bool("quick", false, "shorter measurement windows")
		list   = flag.Bool("list", false, "list experiments and exit")
		env    = flag.Bool("env", false, "print the simulated testbed and exit")
		walk   = flag.Bool("walk", false, "print every PCIe operation of an 8 KB write and read on virtio-fs and nvme-fs (Figures 2(b) and 4) and exit")

		metricsOut = flag.String("metrics-out", "", "run the profiled reference workload, write its metrics snapshot (JSON) to this file and exit")
		traceOut   = flag.String("trace-out", "", "run the profiled reference workload, write its span tree as Perfetto/Chrome trace JSON to this file and exit")
		smallioOut = flag.String("smallio-out", "", "run the small-op direct workload (DMA vs inline path), write its JSON report to this file and exit")
		fsyncOut   = flag.String("fsync-out", "", "run the WAL group-commit fsync workload at 1/4/16 workers, write its JSON report (BENCH_9 shape) to this file and exit")
		whatifOut  = flag.String("whatif-out", "", "run the causal what-if sensitivity sweep (counterfactual parameter dials + payoff-vs-share cross-check), write its JSON report (BENCH_10 shape) to this file and exit")
		faults     = flag.Bool("faults", false, "run the reference workload under the canned fault schedule, report recovery counters and exit")

		profOut   = flag.String("prof-out", "", "run the profiled reference workload, print attribution tables and write the JSON report to this file")
		foldedOut = flag.String("folded-out", "", "run the profiled reference workload, write collapsed stacks (flamegraph.pl / speedscope input) to this file")
		benchOut  = flag.String("bench-out", "", "write the large-I/O comparison plus the profiled reference run's attribution summary (BENCH_5 shape) to this file")

		fleetOut         = flag.String("fleet-out", "", "run the multi-tenant noisy-neighbor fleet, write its per-tenant digest (BENCH_8 shape) to this file and exit")
		fleetTimelineOut = flag.String("fleet-timeline-out", "", "with the fleet scenario: write the drr phase's telemetry timeline JSON (per-tenant t<N>. series, dpcreport -tenant input) to this file")
		rampOut          = flag.String("ramp-out", "", "run the staged load ramp under continuous telemetry, write its per-stage digest (BENCH_7 shape) to this file and exit")
		timelineOut      = flag.String("timeline-out", "", "with the ramp scenario: write the sampler/SLO/flight-recorder timeline JSON to this file")
		timelineTraceOut = flag.String("timeline-trace-out", "", "with the ramp scenario: write the Perfetto trace with metric counter tracks spliced in")
		sloSpecs         = flag.String("slo", "", "semicolon-separated SLO specs for the ramp scenario, e.g. \"p99(client.read.latency) < 800us over 1ms\" (default: the calibrated ramp objective)")
		sloGate          = flag.Float64("slo-gate", -1, "with the ramp scenario: exit non-zero if any objective's burn rate exceeds this fraction (negative disables)")
	)
	flag.Parse()

	ref := referenceOut{metrics: *metricsOut, trace: *traceOut, prof: *profOut, folded: *foldedOut, bench: *benchOut}
	ran := false
	for _, sc := range []struct {
		name string
		on   bool
		run  func() error
	}{
		{"fault scenario", *faults, runFaultScenario},
		{"fleet scenario", *fleetOut != "" || *fleetTimelineOut != "", func() error {
			return runFleetScenario(*fleetOut, *fleetTimelineOut, nil)
		}},
		{"ramp scenario", *rampOut != "" || *timelineOut != "" || *timelineTraceOut != "", func() error {
			return runRampScenario(*rampOut, *timelineOut, *timelineTraceOut, *sloSpecs, *sloGate, nil)
		}},
		{"reference scenario", ref != referenceOut{}, func() error { return runReferenceScenario(ref) }},
		{"smallio scenario", *smallioOut != "", func() error { return runSmallIOScenario(*smallioOut) }},
		{"fsync scenario", *fsyncOut != "", func() error { return runFsyncScenario(*fsyncOut) }},
		{"whatif scenario", *whatifOut != "", func() error { return runWhatifScenario(*whatifOut) }},
	} {
		if !sc.on {
			continue
		}
		ran = true
		if err := sc.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", sc.name, err)
			os.Exit(1)
		}
	}
	if ran {
		return
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}
	if *env {
		m := model.NewMachine(model.Default())
		fmt.Print(m.EnvString())
		return
	}
	if *walk {
		if err := printWalks(); err != nil {
			fmt.Fprintln(os.Stderr, "walk:", err)
			os.Exit(1)
		}
		return
	}

	scale := exp.Full
	if *quick {
		scale = exp.Quick
	}

	var selected []*exp.Experiment
	if *runIDs == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e := exp.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
		start := time.Now()
		for _, t := range e.Run(scale) {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("  (wall time %.1fs)\n", time.Since(start).Seconds())
	}
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeReport runs build and writes its report to path. Nothing is written
// when build fails: a scenario whose op errored must not leave a half-empty
// artifact behind.
func writeReport[T any](path string, build func() (T, error)) (T, error) {
	rep, err := build()
	if err == nil {
		err = writeJSON(path, rep)
	}
	return rep, err
}
