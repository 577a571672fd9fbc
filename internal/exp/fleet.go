package exp

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	dpcroot "dpc"
	"dpc/internal/fault"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
	"dpc/internal/telemetry"
	"dpc/internal/workload"
	"dpc/internal/world"
)

// The fleet workload is the multi-tenant noisy-neighbor experiment: hundreds
// of simulated client procs spread over N tenants share one virtualized
// nvme-fs transport. Tenant 0 is the aggressor — it floods large direct
// writes — while every other tenant runs small direct Zipf reads over its own
// working set. The same contended load runs three ways on three fresh
// systems:
//
//	baseline  victims only (no aggressor): the uncontended tail.
//	fifo      aggressor on, scheduler degraded to FIFO: every admitted
//	          command shares one global queue, so flood writes park in
//	          front of victim reads and the victim tail collapses.
//	drr       aggressor on, weighted-fair scheduling plus the aggressor's
//	          inflight/bandwidth/admission budgets: the scheduler isolates
//	          the victims, whose tail stays near the baseline.
//
// The headline number is the victim p999 across phases; dpcbench -fleet-out
// commits the per-tenant digest as BENCH_8.json.

const (
	fleetOpSize      = 8192 // victim read size
	fleetFilePages   = 2048 // shared victim file: 16 MB of 8 KB pages
	fleetFileSize    = uint64(fleetFilePages * fleetOpSize)
	fleetFloodSize   = 64 * 1024 // flood transport chunk (= MaxIO)
	fleetFloodChunks = 256       // aggressor region: 16 MB of 64 KB chunks
	// Each aggressor op writes 4 chunks (256 KB) in one pipelined call, so
	// every flooding proc keeps several large commands queued at once — the
	// head-of-line depth that makes the FIFO phase hurt.
	fleetFloodOpChunks = 4
	fleetFloodOpSize   = fleetFloodOpChunks * fleetFloodSize
	fleetZipfS         = 1.2 // victim working-set skew
	fleetQPerTenant    = 4   // SQ/CQ pairs per tenant queue group
	fleetSetupDur      = 25 * time.Millisecond
)

// FleetOpBytes and FleetFloodOpBytes expose the scenario's I/O sizes for
// the bench digest.
const (
	FleetOpBytes      = fleetOpSize
	FleetFloodOpBytes = fleetFloodOpSize
)

// FleetConfig shapes a fleet run. The zero value is not runnable; start from
// DefaultFleetConfig.
type FleetConfig struct {
	Tenants        int // queue-group count, including the aggressor (>= 2)
	VictimProcs    int // client procs per victim tenant
	AggressorProcs int // client procs flooding for tenant 0
	Warmup         time.Duration
	Measure        time.Duration
	Seed           int64

	// SLOs are per-tenant objective templates for the telemetry attached to
	// the drr phase; "t*." in a metric expands per tenant. Empty attaches
	// the sampler with no objectives.
	SLOs []string
}

// DefaultFleetConfig is the committed BENCH_8 scenario: 8 tenants, ~200
// client procs.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Tenants:        8,
		VictimProcs:    24,
		AggressorProcs: 32,
		Warmup:         2 * time.Millisecond,
		Measure:        10 * time.Millisecond,
		Seed:           1,
	}
}

// FleetTenantStat is one tenant's measurement-window summary in one phase.
type FleetTenantStat struct {
	Tenant int   `json:"tenant"`
	Procs  int   `json:"procs"`
	Ops    int64 `json:"ops"`
	Errors int64 `json:"errors"`
	Bytes  int64 `json:"bytes"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	// Scheduler counters over the whole phase (warmup included).
	Dispatched int64 `json:"dispatched"`
	Shed       int64 `json:"shed"`
	CostBytes  int64 `json:"cost_bytes"`
}

// FleetPhase is one complete contention scenario on a fresh system.
type FleetPhase struct {
	Name    string            `json:"name"`
	Tenants []FleetTenantStat `json:"tenants"`
	// Victim aggregates pool every victim tenant's windowed ops — the p999
	// here is the experiment's headline.
	VictimOps    int64 `json:"victim_ops"`
	VictimP50Ns  int64 `json:"victim_p50_ns"`
	VictimP99Ns  int64 `json:"victim_p99_ns"`
	VictimP999Ns int64 `json:"victim_p999_ns"`

	AggressorOps  int64 `json:"aggressor_ops"`
	AggressorShed int64 `json:"aggressor_shed"`
}

// FleetRun is the completed three-phase experiment. Obs/T/Now carry the drr
// phase's telemetry pipeline for timeline export (per-tenant series).
type FleetRun struct {
	Cfg    FleetConfig
	Phases []FleetPhase // baseline, fifo, drr

	Obs *obs.Obs
	T   *telemetry.T
	Now sim.Time
}

// Phase returns the named phase (nil when absent).
func (r *FleetRun) Phase(name string) *FleetPhase {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// VictimP999Ratio returns phase/baseline victim p999 — the isolation factor
// the BENCH_8 gate holds: near 1 for drr, multiples for fifo.
func (r *FleetRun) VictimP999Ratio(name string) float64 {
	base, ph := r.Phase("baseline"), r.Phase(name)
	if base == nil || ph == nil || base.VictimP999Ns == 0 {
		return 0
	}
	return float64(ph.VictimP999Ns) / float64(base.VictimP999Ns)
}

// RunFleet executes the three phases. Fully deterministic: identical configs
// produce identical reports and timeline exports. An error in a measured op
// is part of the scenario and is counted per tenant; the first error of a
// setup op fails the run (faults, nil in every committed scenario, injects
// one).
func RunFleet(cfg FleetConfig, faults []fault.Rule) (*FleetRun, error) {
	if cfg.Tenants < 2 || cfg.VictimProcs <= 0 || cfg.Measure <= 0 {
		return nil, fmt.Errorf("fleet: bad config %+v", cfg)
	}
	run := &FleetRun{Cfg: cfg}
	base, _, err := runFleetPhase(cfg, faults, "baseline", false, false, false)
	if err != nil {
		return nil, err
	}
	fifo, _, err := runFleetPhase(cfg, faults, "fifo", true, true, false)
	if err != nil {
		return nil, err
	}
	drr, tel, err := runFleetPhase(cfg, faults, "drr", true, false, true)
	if err != nil {
		return nil, err
	}
	run.Phases = []FleetPhase{base, fifo, drr}
	run.Obs, run.T, run.Now = tel.o, tel.t, tel.now
	return run, nil
}

// fleetTel carries the drr phase's telemetry out of the phase runner.
type fleetTel struct {
	o   *obs.Obs
	t   *telemetry.T
	now sim.Time
}

// runFleetPhase builds a fresh system with the tenant queue groups, runs one
// contention scenario, and summarizes the measurement window.
func runFleetPhase(cfg FleetConfig, faults []fault.Rule, name string, withAggressor, fifo, wantTel bool) (FleetPhase, fleetTel, error) {
	o := obs.New()
	sys := world.NewSystem(func(opts *dpcroot.Options) {
		opts.Model.Obs = o
		opts.NvmeFS.Queues = cfg.Tenants * fleetQPerTenant
		opts.NvmeFS.Tenants = make([]nvmefs.TenantConfig, cfg.Tenants)
		// The aggressor's budgets, enforced by the DRR scheduler in the
		// "drr" phase (the FIFO phase ignores them by design — that is the
		// contrast), calibrated so the drr-phase victim tail holds near the
		// uncontended baseline.
		opts.NvmeFS.Tenants[0] = nvmefs.TenantConfig{
			MaxInflight:  2,
			BandwidthBps: 400 << 20,
			// Half the aggressor's 64 transport slots: the flood's arrival
			// burst overruns the bound and admission control sheds the
			// excess.
			MaxQueued: 32,
		}
		opts.NvmeFS.SchedFIFO = fifo
		opts.Faults = faults
	})
	var opErr firstErr

	// Clients first: each tenant client registers its t<N>.client.* metric
	// family, and the telemetry sampler picks its series from the registry
	// at Attach.
	clients := make([]*dpcroot.Client, cfg.Tenants)
	for t := range clients {
		clients[t] = sys.TenantKVFSClient(t)
	}

	var tel *telemetry.T
	if wantTel {
		var slos []string
		for _, spec := range cfg.SLOs {
			slos = append(slos, telemetry.ExpandTenantSLOs(spec, cfg.Tenants)...)
		}
		t, err := telemetry.Attach(sys.M.Eng, o, telemetry.Config{SLOs: slos})
		if err != nil {
			return FleetPhase{}, fleetTel{}, err
		}
		tel = t
	}

	setupEnd := sim.Time(fleetSetupDur)
	warmEnd := setupEnd + sim.Time(cfg.Warmup)
	end := warmEnd + sim.Time(cfg.Measure)

	// Setup: create both files, pin the flood file's EOF with one tail write
	// (so steady-state flood writes land inside the published size — no
	// per-op size extension), then prefill the shared victim file with
	// parallel range writers. Load procs gate on setupDone, not just the
	// time grid, so a mis-sized setup window degrades into a shorter warmup
	// instead of racing the prefill.
	setupDone := false
	setupCond := sim.NewCond(sys.M.Eng, "fleet-setup")
	const fillers = 8
	chunksPerFiller := fleetFloodChunks / fillers
	sys.Go(func(p *sim.Proc) {
		vf, err := clients[1].Create(p, 0, "/fleet.dat")
		if err != nil {
			opErr.note("fleet create", err)
			return
		}
		ff, err := clients[0].Create(p, 0, "/flood.dat")
		if err != nil {
			opErr.note("fleet flood create", err)
			return
		}
		payload := make([]byte, fleetFloodSize)
		for i := range payload {
			payload[i] = byte(i)
		}
		tail := uint64(fleetFloodChunks-1) * fleetFloodSize
		if err := ff.Write(p, 0, tail, payload, true); err != nil {
			opErr.note("fleet flood seed", err)
			return
		}
		// EOF must be published before the range writers start, or their
		// first writes race to extend the size.
		if err := vf.Write(p, 0, fleetFileSize-fleetFloodSize, payload, true); err != nil {
			opErr.note("fleet seed", err)
			return
		}
		p.Fork("app", fillers, func(p *sim.Proc, w int) {
			vf, err := clients[1].Open(p, w, "/fleet.dat")
			if err != nil {
				opErr.note("fleet fill open", err)
				return
			}
			payload := make([]byte, fleetFloodSize)
			for i := range payload {
				payload[i] = byte(w + i)
			}
			for c := w * chunksPerFiller; c < (w+1)*chunksPerFiller; c++ {
				if err := vf.Write(p, w, uint64(c)*fleetFloodSize, payload, true); err != nil {
					opErr.note("fleet fill", err)
					return
				}
			}
		})
		if p.Now() > setupEnd {
			fmt.Fprintf(os.Stderr, "fleet: setup overran its window (%v > %v)\n",
				time.Duration(p.Now()), fleetSetupDur)
		}
		setupDone = true
		setupCond.Broadcast()
	})

	nVictims := cfg.Tenants - 1
	lats := make([]*stats.Latency, cfg.Tenants)
	for t := range lats {
		lats[t] = stats.NewLatency()
	}
	victimAgg := stats.NewLatency()
	ops := make([]int64, cfg.Tenants)
	errs := make([]int64, cfg.Tenants)
	bytes := make([]int64, cfg.Tenants)

	// load starts proc i of tenant t: once setup is done and the time grid
	// reaches setupEnd it opens path and repeats op until the window ends,
	// counting each op of size bytes that falls inside the measured window
	// (and, for a victim, into the victims' aggregate too).
	load := func(t, i int, path string, size int64, agg *stats.Latency, op func(p *sim.Proc, f *dpcroot.File, iter int) error) {
		sys.Go(func(p *sim.Proc) {
			for !setupDone {
				setupCond.Wait(p)
			}
			if d := setupEnd - p.Now(); d > 0 {
				p.Sleep(time.Duration(d))
			}
			f, err := clients[t].Open(p, i, path)
			if err != nil {
				opErr.note("fleet open "+path, err)
				return
			}
			for iter := 0; p.Now() < end; iter++ {
				t0 := p.Now()
				err := op(p, f, iter)
				t1 := p.Now()
				if t0 < warmEnd || t1 > end {
					continue
				}
				if err != nil {
					errs[t]++
					continue
				}
				ops[t]++
				bytes[t] += size
				lats[t].Record(t1.Sub(t0))
				if agg != nil {
					agg.Record(t1.Sub(t0))
				}
			}
		})
	}

	// Victims: tenant t's procs read 8 KB pages from t's own Zipf working
	// set — the base offset rotates each tenant's hot ranks onto a disjoint
	// region of the shared file.
	for t := 1; t < cfg.Tenants; t++ {
		zipfBase := uint64(t-1) * fleetFilePages / uint64(nVictims)
		for i := 0; i < cfg.VictimProcs; i++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*100003 + int64(i)*7919))
			gen := workload.ZipfGenAt(fleetOpSize, fleetFileSize, fleetZipfS, zipfBase)
			buf := make([]byte, fleetOpSize)
			load(t, i, "/fleet.dat", fleetOpSize, victimAgg, func(p *sim.Proc, f *dpcroot.File, iter int) error {
				_, err := f.ReadInto(p, i, gen(i, rng, iter).Off, buf, true)
				return err
			})
		}
	}

	// Aggressor: tenant 0 floods 64 KB direct writes over its own file.
	// Budget-shed attempts come back retryable (StatusOverload); the
	// transport's bounded retry loop absorbs most, and whatever exhausts its
	// retries surfaces as an op error here — both are part of the scenario.
	for i := 0; withAggressor && i < cfg.AggressorProcs; i++ {
		payload := make([]byte, fleetFloodOpSize)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		const slots = fleetFloodChunks / fleetFloodOpChunks
		load(0, i, "/flood.dat", fleetFloodOpSize, nil, func(p *sim.Proc, f *dpcroot.File, iter int) error {
			slot := (uint64(i) + uint64(iter)*uint64(cfg.AggressorProcs)) % slots
			return f.Write(p, i, slot*fleetFloodOpSize, payload, true)
		})
	}

	sys.RunFor(time.Duration(end) + time.Millisecond)
	if tel != nil {
		tel.Flush(sys.Now())
	}

	ph := FleetPhase{Name: name}
	for t := 0; t < cfg.Tenants; t++ {
		ts := sys.Driver.TenantStats(t)
		st := FleetTenantStat{
			Tenant:     t,
			Procs:      cfg.VictimProcs,
			Ops:        ops[t],
			Errors:     errs[t],
			Bytes:      bytes[t],
			P50Ns:      int64(lats[t].Percentile(50)),
			P99Ns:      int64(lats[t].Percentile(99)),
			P999Ns:     int64(lats[t].Percentile(99.9)),
			Dispatched: ts.Dispatched,
			Shed:       ts.Shed,
			CostBytes:  ts.CostBytes,
		}
		if t == 0 {
			st.Procs = 0
			if withAggressor {
				st.Procs = cfg.AggressorProcs
			}
			ph.AggressorOps = st.Ops
			ph.AggressorShed = st.Shed
		} else {
			ph.VictimOps += st.Ops
		}
		ph.Tenants = append(ph.Tenants, st)
	}
	ph.VictimP50Ns = int64(victimAgg.Percentile(50))
	ph.VictimP99Ns = int64(victimAgg.Percentile(99))
	ph.VictimP999Ns = int64(victimAgg.Percentile(99.9))

	out := fleetTel{o: o, t: tel, now: sys.Now()}
	sys.StopDaemons()
	sys.Shutdown()
	if opErr.err != nil {
		return FleetPhase{}, fleetTel{}, fmt.Errorf("%s phase: %w", name, opErr.err)
	}
	return ph, out, nil
}
