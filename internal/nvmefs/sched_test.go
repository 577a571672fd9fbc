package nvmefs

import (
	"testing"
	"time"

	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// newTenantDriver builds a driver with the transport virtualized into one
// queue group per tenant config, over a backend that takes service of
// virtual time per command.
func newTenantDriver(t *testing.T, queues int, tenants []TenantConfig, service time.Duration) (*model.Machine, *Driver) {
	t.Helper()
	cfg := model.Default()
	cfg.HostMemMB = 96
	cfg.DPUMemMB = 8
	m := model.NewMachine(cfg)
	vc := newVirtualClient()
	d := NewDriver(m, Config{
		Queues: queues, Depth: 64, SlotsPerQ: 32, MaxIO: 64 * 1024, RHCap: 256,
		Tenants: tenants,
	}, func(p *sim.Proc, req Request) Response {
		p.Sleep(service)
		return vc.handle(p, req)
	})
	return m, d
}

// floodTenant runs procs closed-loop writers against tenant t's queue group
// until the virtual deadline. Each writer keeps exactly one op outstanding,
// so with more writers than dispatch slots the tenant stays backlogged.
func floodTenant(m *model.Machine, d *Driver, t, procs, opBytes int, until sim.Time) {
	base, count := d.TenantQueues(t)
	for i := 0; i < procs; i++ {
		qid := base + i%count
		node := uint64(t*1000 + i)
		m.Eng.Go("flood", func(p *sim.Proc) {
			payload := make([]byte, opBytes)
			for iter := 0; p.Now() < until; iter++ {
				off := uint64(iter%8) * uint64(opBytes)
				d.Submit(p, qid, Submission{
					FileOp: nvme.FileOpWrite, Header: header(node, off), Payload: payload,
				})
			}
		})
	}
}

// TestDRRFairnessEqualWeights is the fairness invariant: with every tenant
// continuously backlogged, dispatched cost bytes stay within a bounded
// deficit of each other — the DRR clamp (two rounds' grant) plus one
// command. Each tenant keeps more commands outstanding than there are
// dispatch workers (two queue groups of 32 slots, 48 writers), so a policy
// that serves whichever tenant it granted last until that tenant runs dry
// would starve the others.
func TestDRRFairnessEqualWeights(t *testing.T) {
	const nTenants = 4
	// A slow backend keeps the dispatch workers the bottleneck.
	m, d := newTenantDriver(t, 2*nTenants, make([]TenantConfig, nTenants), 200*time.Microsecond)

	const until = sim.Time(5_000_000) // 5ms
	for tn := 0; tn < nTenants; tn++ {
		floodTenant(m, d, tn, dispatchWorkers*3/2, 32*1024, until)
	}

	// Snapshot mid-run, while every tenant is still backlogged; at the end of
	// the run the flooders drain and totals converge trivially.
	var snap [nTenants]TenantStats
	m.Eng.Schedule(until-1_000_000, func() {
		for tn := 0; tn < nTenants; tn++ {
			snap[tn] = d.TenantStats(tn)
			if snap[tn].Queued == 0 {
				t.Errorf("tenant %d not backlogged at snapshot (queued 0) — fairness bound vacuous", tn)
			}
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()

	quantum := int64(d.MaxIO()) + 512
	maxCost := int64(512 + 32*1024)
	bound := 2*quantum + maxCost // deficit clamp + one command
	lo, hi := snap[0].CostBytes, snap[0].CostBytes
	for _, s := range snap[1:] {
		if s.CostBytes < lo {
			lo = s.CostBytes
		}
		if s.CostBytes > hi {
			hi = s.CostBytes
		}
	}
	if lo == 0 {
		t.Fatalf("a tenant was never served: %+v", snap)
	}
	if hi-lo > bound {
		t.Errorf("cost spread %d (lo %d, hi %d) exceeds deficit bound %d",
			hi-lo, lo, hi, bound)
	}
}

// TestAdmissionShedsOverBudget: a tenant driven far past its MaxQueued bound
// has commands shed at admission with the retryable StatusOverload — and the
// host retry engine still completes every op, so shedding is delay, not loss.
func TestAdmissionShedsOverBudget(t *testing.T) {
	tenants := []TenantConfig{
		{MaxQueued: 2, MaxInflight: 1},
		{},
	}
	// A slow backend makes execution the bottleneck (a large payload would
	// not: its DMA shares the PCIe link with SQE fetches, so the TGT drain
	// would slow in lockstep with service and the ready queue never fills).
	m, d := newTenantDriver(t, 2, tenants, 50*time.Microsecond)

	// The whole burst serializes behind one 50µs inflight slot (~0.8ms), well
	// inside the ~2.5ms of backoff the retry budget spends, so the unluckiest
	// op still completes.

	base, _ := d.TenantQueues(0)
	const writers = 16
	failures := 0
	for i := 0; i < writers; i++ {
		node := uint64(i)
		m.Eng.Go("burst", func(p *sim.Proc) {
			c := d.Submit(p, base, Submission{
				FileOp: nvme.FileOpWrite, Header: header(node, 0), Payload: make([]byte, 4096),
			})
			if !c.OK() {
				failures++
			}
		})
	}
	m.Eng.Run()
	m.Eng.Shutdown()

	st := d.TenantStats(0)
	if st.Shed == 0 {
		t.Errorf("no commands shed with MaxQueued=2 under %d concurrent writers: %+v", writers, st)
	}
	if failures != 0 {
		t.Errorf("%d ops failed — StatusOverload must be retryable, not terminal", failures)
	}
	if st.Dispatched < writers {
		t.Errorf("dispatched %d < %d submitted ops", st.Dispatched, writers)
	}
}

// TestSchedDeterminism: the same multi-tenant contention scenario run twice
// produces identical per-tenant scheduler accounting, snapshot mid-run and at
// the end — ready queues, cursor scans and token refills are all virtual-time
// deterministic.
func TestSchedDeterminism(t *testing.T) {
	run := func() (mid, end [3]TenantStats) {
		tenants := []TenantConfig{
			{MaxInflight: 2, BandwidthBps: 200 << 20, MaxQueued: 4},
			{},
			{},
		}
		m, d := newTenantDriver(t, 3, tenants, 0)
		const until = sim.Time(4_000_000)
		for tn := 0; tn < 3; tn++ {
			floodTenant(m, d, tn, dispatchWorkers/2, 16*1024, until)
		}
		m.Eng.Schedule(until/2, func() {
			for tn := 0; tn < 3; tn++ {
				mid[tn] = d.TenantStats(tn)
			}
		})
		m.Eng.Run()
		m.Eng.Shutdown()
		for tn := 0; tn < 3; tn++ {
			end[tn] = d.TenantStats(tn)
		}
		return mid, end
	}

	mid1, end1 := run()
	mid2, end2 := run()
	if mid1 != mid2 {
		t.Errorf("mid-run stats diverge across same-seed runs:\n  %+v\n  %+v", mid1, mid2)
	}
	if end1 != end2 {
		t.Errorf("final stats diverge across same-seed runs:\n  %+v\n  %+v", end1, end2)
	}
}
