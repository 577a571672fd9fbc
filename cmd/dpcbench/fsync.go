package main

import (
	"fmt"
	"time"

	"dpc"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
	"dpc/internal/world"
)

// runFsyncScenario is the -fsync-out workload: concurrent writers on a
// WAL-enabled KVFS stack, each appending to its own file and fsyncing after
// every burst. With one worker every fsync pays its own WAL write + SSD
// barrier; with 4 and 16 the group-commit window gathers concurrent fsyncs
// into shared barriers, so fsyncs-per-barrier climbs and the per-fsync
// latency grows sublinearly in the worker count instead of paying one
// serialized barrier each.
// The JSON report (BENCH_9 shape) captures per-tier fsync counts, WAL
// commit/barrier counts, amortization ratio, journaled bytes and fsync
// latency quantiles, and is byte-stable across runs so it can be committed
// and gated with `make bench-identical`.
func runFsyncScenario(outPath string) error {
	report, err := writeReport(outPath, buildFsyncReport)
	if err != nil {
		return err
	}
	t0, tn := report.Tiers[0], report.Tiers[len(report.Tiers)-1]
	fmt.Printf("wrote fsync report to %s (fsyncs/barrier %.2f -> %.2f at %d workers; p99 %s -> %s)\n",
		outPath, t0.FsyncsPerBarrier, tn.FsyncsPerBarrier, tn.Workers,
		time.Duration(t0.Latency.P99Ns), time.Duration(tn.Latency.P99Ns))
	return nil
}

// fsyncReport is the BENCH_9 shape.
type fsyncReport struct {
	Workload string      `json:"workload"`
	Tiers    []fsyncTier `json:"tiers"`
}

type fsyncTier struct {
	Workers int `json:"workers"`
	// Fsyncs is the total measured fsync count (fsyncRounds per worker);
	// Commits counts WAL group commits, each costing one device write + one
	// SSD barrier. Their ratio is the amortization the group window buys.
	Fsyncs           int64   `json:"fsyncs"`
	Commits          int64   `json:"commits"`
	FsyncsPerBarrier float64 `json:"fsyncs_per_barrier"`
	// WALBytes is the journaled byte volume; per-op it is flat across tiers
	// (group commit shares barriers, not record framing).
	WALBytes      int64        `json:"wal_bytes"`
	WALBytesPerOp float64      `json:"wal_bytes_per_op"`
	ElapsedNS     int64        `json:"elapsed_ns"`
	Latency       fsyncLatency `json:"fsync_latency"`
}

type fsyncLatency struct {
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
}

const (
	fsyncRounds = 24       // measured fsyncs per worker
	fsyncBurst  = 2 * 8192 // bytes buffered per round before the fsync
)

func buildFsyncReport() (fsyncReport, error) {
	report := fsyncReport{Workload: "fsync-group-commit"}
	for _, w := range []int{1, 4, 16} {
		tier, err := measureFsyncTier(w)
		if err != nil {
			return report, err
		}
		report.Tiers = append(report.Tiers, tier)
	}
	return report, nil
}

// measureFsyncTier runs one worker count on a fresh WAL-enabled system.
func measureFsyncTier(workers int) (fsyncTier, error) {
	o := obs.New()
	sys := world.NewSystem(func(opts *dpc.Options) {
		opts.Model.Obs = o
		opts.WAL.Enabled = true
	})

	lat := stats.NewLatency()
	tier := fsyncTier{Workers: workers}

	var err error
	var last sim.Time
	tier.Fsyncs, last, err = world.FsyncWriters(sys, workers, fsyncRounds, fsyncBurst, "/fsync-w", func(p *sim.Proc, f *dpc.File) error {
		start := p.Now()
		err := f.Sync(p, 0)
		if err == nil {
			lat.Record(time.Duration(p.Now() - start))
		}
		return err
	})
	tier.ElapsedNS = int64(last)
	sys.StopDaemons()
	sys.Shutdown()
	if err != nil {
		return tier, fmt.Errorf("fsync tier, %d workers: %w", workers, err)
	}

	tier.Commits = o.Registry().CounterValue("wal.commits")
	tier.WALBytes = o.Registry().CounterValue("wal.bytes")
	if tier.Commits > 0 {
		tier.FsyncsPerBarrier = float64(tier.Fsyncs) / float64(tier.Commits)
	}
	if tier.Fsyncs > 0 {
		tier.WALBytesPerOp = float64(tier.WALBytes) / float64(tier.Fsyncs)
	}
	tier.Latency = fsyncLatency{
		P50Ns: int64(lat.Percentile(50)),
		P99Ns: int64(lat.Percentile(99)),
		MaxNs: int64(lat.Max()),
	}
	return tier, nil
}
