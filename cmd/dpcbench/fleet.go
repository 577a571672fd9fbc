package main

import (
	"fmt"
	"os"

	"dpc/internal/exp"
	"dpc/internal/fault"
)

// The fleet scenario: the multi-tenant noisy-neighbor experiment.
// -fleet-out commits the per-tenant digest (BENCH_8 shape);
// -fleet-timeline-out writes the drr phase's telemetry timeline,
// whose per-tenant t<N>. series feed dpcreport's -tenant views.

// defaultFleetSLO is the per-tenant objective template attached to the drr
// phase: with the scheduler isolating the victims, every tenant's windowed
// read tail must hold under the threshold even while the aggressor floods.
const defaultFleetSLO = "p999(t*.client.read.latency) < 1ms over 2ms"

// Isolation gates the committed BENCH_8 must satisfy (checked on every run
// of the scenario): the baseline must really be uncontended, its victim
// p999 within 25% of its p50; with the scheduler the victim p999 stays
// within 25% of that baseline; without it (FIFO) the same flood must show
// at least 2x degradation, or the scenario is not demonstrating anything.
const (
	fleetBaselineGate = 1.25
	fleetDrrGate      = 1.25
	fleetFifoGate     = 2.0
)

// fleetReport is the BENCH_8-shaped digest.
type fleetReport struct {
	Workload       string `json:"workload"`
	Tenants        int    `json:"tenants"`
	VictimProcs    int    `json:"victim_procs"`
	AggressorProcs int    `json:"aggressor_procs"`
	OpBytes        int    `json:"op_bytes"`
	FloodOpBytes   int    `json:"flood_op_bytes"`
	Seed           int64  `json:"seed"`
	SLO            string `json:"slo"`

	Phases []exp.FleetPhase `json:"phases"`

	// The headline: victim-aggregate p999 ratios against the uncontended
	// baseline, scheduler off (fifo) vs on (drr).
	FifoOverBaseline float64 `json:"fifo_over_baseline"`
	DrrOverBaseline  float64 `json:"drr_over_baseline"`

	// SLO accounting from the drr phase's telemetry.
	Windows    int64 `json:"windows"`
	Violations int64 `json:"violations"`
}

// buildFleetRun executes the three-phase fleet experiment and digests it.
func buildFleetRun(faults []fault.Rule) (*exp.FleetRun, fleetReport, error) {
	cfg := exp.DefaultFleetConfig()
	cfg.SLOs = []string{defaultFleetSLO}
	run, err := exp.RunFleet(cfg, faults)
	if err != nil {
		return nil, fleetReport{}, err
	}
	rep := fleetReport{
		Workload:         "fleet-noisy-neighbor",
		Tenants:          cfg.Tenants,
		VictimProcs:      cfg.VictimProcs,
		AggressorProcs:   cfg.AggressorProcs,
		OpBytes:          exp.FleetOpBytes,
		FloodOpBytes:     exp.FleetFloodOpBytes,
		Seed:             cfg.Seed,
		SLO:              defaultFleetSLO,
		Phases:           run.Phases,
		FifoOverBaseline: run.VictimP999Ratio("fifo"),
		DrrOverBaseline:  run.VictimP999Ratio("drr"),
	}
	for _, obj := range run.T.Objectives() {
		rep.Windows += obj.Windows()
		rep.Violations += obj.Violations()
	}
	return run, rep, nil
}

// checkFleetGates enforces the isolation thresholds on a fresh report.
func checkFleetGates(rep fleetReport) error {
	if base := rep.Phases[0]; float64(base.VictimP999Ns) > fleetBaselineGate*float64(base.VictimP50Ns) {
		return fmt.Errorf("fleet gate: baseline victim p999 is %.2fx its p50 (limit %.2fx): the baseline is contended",
			float64(base.VictimP999Ns)/float64(base.VictimP50Ns), fleetBaselineGate)
	}
	if rep.DrrOverBaseline > fleetDrrGate {
		return fmt.Errorf("fleet gate: drr victim p999 is %.2fx the uncontended baseline (limit %.2fx)",
			rep.DrrOverBaseline, fleetDrrGate)
	}
	if rep.FifoOverBaseline < fleetFifoGate {
		return fmt.Errorf("fleet gate: fifo victim p999 is only %.2fx the baseline (want >= %.2fx contrast)",
			rep.FifoOverBaseline, fleetFifoGate)
	}
	return nil
}

// runFleetScenario runs the fleet experiment once and writes whichever
// outputs were requested.
func runFleetScenario(fleetOut, timelineOut string, faults []fault.Rule) error {
	run, rep, err := buildFleetRun(faults)
	if err != nil {
		return err
	}
	if err := checkFleetGates(rep); err != nil {
		return err
	}
	if fleetOut != "" {
		if err := writeJSON(fleetOut, rep); err != nil {
			return err
		}
		fmt.Printf("wrote fleet report to %s (victim p999 baseline/fifo/drr %v/%v/%v ns, fifo %.2fx, drr %.2fx, %d shed)\n",
			fleetOut, rep.Phases[0].VictimP999Ns, rep.Phases[1].VictimP999Ns, rep.Phases[2].VictimP999Ns,
			rep.FifoOverBaseline, rep.DrrOverBaseline, rep.Phases[2].AggressorShed)
	}
	if timelineOut != "" {
		b, err := run.T.TimelineJSON(run.Now)
		if err != nil {
			return err
		}
		if err := os.WriteFile(timelineOut, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote fleet telemetry timeline to %s (%d ticks, %d series)\n",
			timelineOut, run.T.Store().Ticks(), len(run.T.Store().ColumnNames()))
	}
	return nil
}
