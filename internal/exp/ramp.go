package exp

import (
	"fmt"
	"time"

	dpcroot "dpc"
	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
	"dpc/internal/telemetry"
)

// The ramp workload drives the full client → nvme-fs → dispatch → cache
// stack through a staged load ramp — worker count doubling every stage —
// under continuous telemetry. Early stages run far below saturation and
// meet the latency SLO; the final stages oversubscribe the submission
// queues, the windowed p99 crosses the objective, and the SLO engine flags
// the overload windows while the flight recorder dumps the causal trace.
// dpcbench -ramp-out commits the per-stage digest as BENCH_7.json.

// DefaultRampSLO is the objective the ramp run is calibrated against: the
// light-load stages clear it with margin, the saturated stages burn it.
// Light load runs a ~115us windowed p99; the saturated final stage runs
// ~213us. 160us sits between the plateaus with more than a bucket width
// (12.5%) of margin on each side.
const DefaultRampSLO = "p99(client.read.latency) < 160us over 1ms"

// RampStage is one load plateau of the ramp.
type RampStage struct {
	Workers int   `json:"workers"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	Ops     int64 `json:"ops"`
	// P99Ns is the windowed read p99 over exactly this stage (bucket delta
	// between the stage's boundary snapshots).
	P99Ns int64 `json:"p99_ns"`
}

// RampRun is the completed workload with its telemetry pipeline, ready for
// export (timeline JSON, Perfetto trace) or digestion (BENCH_7).
type RampRun struct {
	Obs    *obs.Obs
	T      *telemetry.T
	Now    sim.Time
	Stages []RampStage
	Reads  int64
}

// rampStageWorkers doubles load every stage.
var rampStageWorkers = []int{1, 2, 4, 8, 16}

const (
	rampOpSize    = 8192
	rampFilePages = 64
	rampStageDur  = 10 * time.Millisecond
	rampSetupDur  = 5 * time.Millisecond
)

// firstErr keeps the first op error the procs of a scenario (the ramp, a
// fleet phase) report, in event order, for the scenario to return.
type firstErr struct{ err error }

func (f *firstErr) note(what string, err error) {
	if f.err == nil {
		f.err = fmt.Errorf("%s: %w", what, err)
	}
}

// RunRamp executes the staged ramp with the given objectives (nil uses
// DefaultRampSLO) and sample interval (0 uses the 100us default). The run
// is fully deterministic: identical arguments produce byte-identical
// timeline and trace exports. The first op error of any proc fails the run;
// faults (nil in every committed scenario) injects one.
func RunRamp(slos []string, interval time.Duration, faults []fault.Rule) (*RampRun, error) {
	if len(slos) == 0 {
		slos = []string{DefaultRampSLO}
	}
	// Spans carry component intervals, so a flight-recorder dump's
	// critical-path report attributes the overload (slot waits vs SSD
	// service vs DMA) instead of lumping it into "other".
	o := obs.New()
	sys := newSystem(func(opts *dpcroot.Options) {
		opts.Model.Obs = o
		// Constrain the transport so the ramp actually saturates: two
		// queues with few buffer slots. The early stages fit; the late
		// stages park on slot acquisition and the windowed p99 climbs past
		// the objective.
		opts.NvmeFS.Queues = 2
		opts.NvmeFS.SlotsPerQ = 4
		opts.Faults = faults
	})
	tel, err := telemetry.Attach(sys.M.Eng, o, telemetry.Config{
		Interval: interval,
		SLOs:     slos,
		SlowSpan: 2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	var opErr firstErr
	run := &RampRun{Obs: o, T: tel}
	nStages := len(rampStageWorkers)
	run.Stages = make([]RampStage, nStages)
	rampStart := sim.Time(rampSetupDur)
	for i := range run.Stages {
		run.Stages[i] = RampStage{
			Workers: rampStageWorkers[i],
			StartNs: int64(rampStart) + int64(i)*int64(rampStageDur),
			EndNs:   int64(rampStart) + int64(i+1)*int64(rampStageDur),
		}
	}
	rampEnd := sim.Time(run.Stages[nStages-1].EndNs)

	// Stage-boundary bucket snapshots of the read histogram: nStages+1
	// fences, deltas between adjacent fences yield per-stage p99.
	fences := make([][]int64, nStages+1)
	totals := make([]int64, nStages+1)
	for i := range fences {
		fences[i] = make([]int64, stats.BucketCount())
	}
	cl := sys.KVFSClient()
	hRead := o.Registry().LookupHistogram("client.read.latency")

	// Setup: create the shared file and fill it with direct writes, well
	// before the ramp begins.
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/ramp.dat")
		if err != nil {
			opErr.note("ramp create", err)
			return
		}
		payload := make([]byte, rampOpSize)
		for i := range payload {
			payload[i] = byte(i)
		}
		for i := 0; i < rampFilePages; i++ {
			if err := f.Write(p, 0, uint64(i)*rampOpSize, payload, true); err != nil {
				opErr.note("ramp fill", err)
				return
			}
		}
	})

	// Stagekeeper: fence the read histogram at every stage boundary.
	sys.Go(func(p *sim.Proc) {
		for i := 0; i <= nStages; i++ {
			at := rampStart + sim.Time(i)*sim.Time(rampStageDur)
			if d := at - p.Now(); d > 0 {
				p.Sleep(time.Duration(d))
			}
			totals[i] = hRead.Latency().CopyBuckets(fences[i])
		}
	})

	// Workers: worker w joins at the stage where the ramp first needs it
	// and reads until the ramp ends, so stage k runs rampStageWorkers[k]
	// concurrent readers.
	maxWorkers := rampStageWorkers[nStages-1]
	for w := 0; w < maxWorkers; w++ {
		joinStage := 0
		for rampStageWorkers[joinStage] <= w {
			joinStage++
		}
		w := w
		start := rampStart + sim.Time(joinStage)*sim.Time(rampStageDur)
		sys.Go(func(p *sim.Proc) {
			if d := start - p.Now(); d > 0 {
				p.Sleep(time.Duration(d))
			}
			qid := w % 2
			f, err := cl.Open(p, qid, "/ramp.dat")
			if err != nil {
				opErr.note("ramp open", err)
				return
			}
			page := uint64(w) // deterministic stride, decorrelated by worker
			buf := make([]byte, rampOpSize)
			for p.Now() < rampEnd {
				off := (page % rampFilePages) * rampOpSize
				page += 3
				if _, err := f.ReadInto(p, qid, off, buf, true); err != nil {
					opErr.note("ramp read", err)
					return
				}
				run.Reads++
				if st := int(int64(p.Now())-int64(rampStart)) / int(rampStageDur); st >= 0 && st < nStages {
					run.Stages[st].Ops++
				}
			}
		})
	}

	sys.RunFor(time.Duration(rampEnd) + time.Millisecond)
	tel.Flush(sys.Now())
	run.Now = sys.Now()

	delta := make([]int64, stats.BucketCount())
	for i := 0; i < nStages; i++ {
		for j := range delta {
			delta[j] = fences[i+1][j] - fences[i][j]
		}
		run.Stages[i].P99Ns = stats.WindowQuantile(delta, totals[i+1]-totals[i], 0.99)
	}

	sys.StopDaemons()
	sys.Shutdown()
	if opErr.err != nil {
		return nil, opErr.err
	}
	return run, nil
}
