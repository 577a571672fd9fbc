package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"dpc/internal/exp"
	"dpc/internal/fault"
)

// The ramp scenario: staged load under continuous telemetry. -ramp-out
// commits the per-stage digest (BENCH_7 shape);
// -timeline-out writes the full sampler/SLO/flight-recorder timeline and
// -timeline-trace-out the Perfetto trace with counter tracks spliced in.

// rampReport is the BENCH_7-shaped digest.
type rampReport struct {
	Workload   string          `json:"workload"`
	OpBytes    int             `json:"op_bytes"`
	IntervalNs int64           `json:"interval_ns"`
	SLO        string          `json:"slo"`
	Stages     []exp.RampStage `json:"stages"`
	Reads      int64           `json:"reads"`
	Ticks      int64           `json:"ticks"`
	// Windows/Violations/BurnRate summarize the (single) ramp objective.
	Windows          int64   `json:"windows"`
	Violations       int64   `json:"violations"`
	BurnRate         float64 `json:"burn_rate"`
	FirstViolationNs int64   `json:"first_violation_ns"`
	Dumps            int     `json:"dumps"`
	// Whole-run read quantiles.
	ReadP50Ns int64 `json:"read_p50_ns"`
	ReadP99Ns int64 `json:"read_p99_ns"`
}

// buildRampRun executes the ramp and digests it. Empty slos uses the
// calibrated default objective.
func buildRampRun(slos []string, faults []fault.Rule) (*exp.RampRun, rampReport, error) {
	run, err := exp.RunRamp(slos, 100*time.Microsecond, faults)
	if err != nil {
		return nil, rampReport{}, err
	}
	rep := rampReport{
		Workload:   "ramp-telemetry",
		OpBytes:    8192,
		IntervalNs: int64(100 * time.Microsecond),
		Stages:     run.Stages,
		Reads:      run.Reads,
		Ticks:      run.T.Ticks(),
		Dumps:      len(run.T.Dumps()),
	}
	if objs := run.T.Objectives(); len(objs) > 0 {
		rep.SLO = objs[0].Spec
		rep.Windows = objs[0].Windows()
		rep.Violations = objs[0].Violations()
		rep.BurnRate = objs[0].BurnRate()
	}
	if vs := run.T.Violations(); len(vs) > 0 {
		rep.FirstViolationNs = vs[0].TimeNs
	}
	if h := run.Obs.Registry().LookupHistogram("client.read.latency"); h != nil {
		rep.ReadP50Ns = int64(h.Latency().Percentile(50))
		rep.ReadP99Ns = int64(h.Latency().Percentile(99))
	}
	return run, rep, nil
}

// runRampScenario runs the ramp once and writes whichever outputs were
// requested. sloGate, when >= 0, fails the run if any objective's burn
// rate exceeds it. Nothing is written when an op of the run failed.
func runRampScenario(rampOut, timelineOut, traceOut, sloSpecs string, sloGate float64, faults []fault.Rule) error {
	var slos []string
	if sloSpecs != "" {
		for _, s := range strings.Split(sloSpecs, ";") {
			if s = strings.TrimSpace(s); s != "" {
				slos = append(slos, s)
			}
		}
	}
	run, rep, err := buildRampRun(slos, faults)
	if err != nil {
		return err
	}
	if rampOut != "" {
		if err := writeJSON(rampOut, rep); err != nil {
			return err
		}
		fmt.Printf("wrote ramp report to %s (%d reads, %d/%d windows violated, burn rate %.2f, %d dumps)\n",
			rampOut, rep.Reads, rep.Violations, rep.Windows, rep.BurnRate, rep.Dumps)
	}
	if timelineOut != "" {
		b, err := run.T.TimelineJSON(run.Now)
		if err != nil {
			return err
		}
		if err := os.WriteFile(timelineOut, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote telemetry timeline to %s (%d ticks, %d series)\n",
			timelineOut, run.T.Store().Ticks(), len(run.T.Store().ColumnNames()))
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, run.T.PerfettoTrace(run.Now), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Perfetto trace with counter tracks to %s\n", traceOut)
	}
	if sloGate >= 0 {
		for _, obj := range run.T.Objectives() {
			if br := obj.BurnRate(); br > sloGate {
				return fmt.Errorf("slo gate: %s burn rate %.3f exceeds gate %.3f (%d/%d windows)",
					obj.Spec, br, sloGate, obj.Violations(), obj.Windows())
			}
		}
		fmt.Printf("slo gate OK (limit %.3f)\n", sloGate)
	}
	return nil
}
