// DPU-side multi-tenant dispatch scheduler: the arbitration stage between
// queue drain and execution that RPCAcc argues belongs on the accelerator.
//
// TGT threads drain their rings as before, but instead of handing each
// fetched command straight to a worker they offer it to the scheduler. A
// fixed pool of dispatch workers then pulls commands under a fair
// policy: deficit round-robin over per-command cost estimates (command
// overhead + declared transfer bytes both ways), gated by per-tenant
// inflight caps and token-bucket bandwidth budgets. Admission control runs
// at offer time: a tenant whose ready queue is over its bound has the
// command shed immediately with a retryable StatusOverload — before any
// PRP or payload DMA is spent on it — and the host's retry engine turns
// that into backoff-based delay.
//
// Everything runs in virtual time on the deterministic engine: ready queues
// are plain FIFOs, the round-robin cursor and deficit grants are scanned in
// tenant-ID order, and token refills are derived from p.Now(), so two runs
// of the same seed schedule identically.
package nvmefs

import (
	"fmt"
	"time"

	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// dispatchWorkers is the size of the DPU-side dispatch/execute pool the
// scheduler feeds. It is wide enough that a fleet of ~200 closed-loop procs
// does not saturate it on its own, so an uncontended tenant's tail is not
// self-congestion.
const dispatchWorkers = 32

// schedTenant is one tenant's scheduler state.
type schedTenant struct {
	cfg TenantConfig

	ready    []fetched // FIFO of admitted, not yet dispatched commands
	deficit  int64     // DRR deficit in cost bytes
	tokens   float64   // bandwidth token bucket, in cost bytes
	seeded   bool      // tokens initialized (bucket starts full)
	last     sim.Time  // virtual time of the last token refill
	inflight int       // dispatched and not yet completed

	// Published as nvmefs.t<i>.dispatched/shed/bytes when obs is on.
	dispatched int64 // commands granted to a worker
	shed       int64 // commands refused at admission
	bytes      int64 // cost bytes granted

	oQueued   *obs.Gauge
	oInflight *obs.Gauge
	oWait     *obs.Histogram // fetch→dispatch scheduling delay
}

// scheduler arbitrates fetched commands across tenants.
type scheduler struct {
	d       *Driver
	fifo    bool // SchedFIFO: arrival order, no budgets, no shedding
	tenants []*schedTenant
	fifoQ   []fetched // the single cross-tenant queue in FIFO mode
	cond    *sim.Cond // workers park here; offer/done/timer wake them
	quantum int64     // DRR round grant: one max-size command plus header overhead
	burst   int64     // token-bucket cap; covers the largest single command
	rr      int       // DRR cursor: the tenant currently being served
	timerAt sim.Time  // armed token-refill wake, 0 = none
}

// TenantStats is a point-in-time snapshot of one tenant's scheduler
// accounting (tests and benches; telemetry reads the published names).
type TenantStats struct {
	Dispatched int64 // commands granted to dispatch workers
	Shed       int64 // commands refused at admission with StatusOverload
	CostBytes  int64 // cost bytes granted (overhead + both-direction bytes)
	Queued     int   // admitted commands waiting for a grant
	Inflight   int   // dispatched commands not yet completed
}

// TenantStats returns tenant t's scheduler snapshot (zero when the
// transport is not virtualized).
func (d *Driver) TenantStats(t int) TenantStats {
	if d.sched == nil || t < 0 || t >= len(d.sched.tenants) {
		return TenantStats{}
	}
	st := d.sched.tenants[t]
	return TenantStats{Dispatched: st.dispatched, Shed: st.shed, CostBytes: st.bytes,
		Queued: len(st.ready), Inflight: st.inflight}
}

func newScheduler(d *Driver) *scheduler {
	s := &scheduler{
		d:       d,
		fifo:    d.cfg.SchedFIFO,
		cond:    sim.NewCond(d.m.Eng, "nvme-sched"),
		quantum: int64(d.cfg.MaxIO) + 512,
		burst:   2*int64(d.cfg.MaxIO+d.cfg.RHCap) + 1024,
	}
	for i, tc := range d.cfg.Tenants {
		st := &schedTenant{cfg: tc}
		if o := d.o; o != nil {
			o.Publish(fmt.Sprintf("nvmefs.t%d.dispatched", i), &st.dispatched)
			o.Publish(fmt.Sprintf("nvmefs.t%d.shed", i), &st.shed)
			o.Publish(fmt.Sprintf("nvmefs.t%d.bytes", i), &st.bytes)
			st.oQueued = o.Gauge(fmt.Sprintf("nvmefs.t%d.queued", i))
			st.oInflight = o.Gauge(fmt.Sprintf("nvmefs.t%d.inflight", i))
			st.oWait = o.Histogram(fmt.Sprintf("nvmefs.t%d.sched_wait", i))
		}
		s.tenants = append(s.tenants, st)
	}
	return s
}

// offer admits one fetched command into its tenant's ready queue, or sheds
// it. Runs on the TGT proc, so a shed command's StatusOverload CQE is
// posted in queue order and the ring slot frees immediately.
func (s *scheduler) offer(p *sim.Proc, f fetched) {
	st := s.tenants[f.qs.tenant]
	if !s.fifo && st.cfg.MaxQueued > 0 && len(st.ready) >= st.cfg.MaxQueued {
		st.shed++
		s.d.complete(p, f.qs, f.gen, f.sqe, Response{Status: nvme.StatusOverload})
		return
	}
	if s.fifo {
		s.fifoQ = append(s.fifoQ, f)
	} else {
		st.ready = append(st.ready, f)
		st.oQueued.Set(float64(len(st.ready)))
	}
	s.cond.Signal()
}

// refill tops up a tenant's token bucket from elapsed virtual time. Buckets
// start full so an idle tenant's first burst is not throttled.
func (s *scheduler) refill(st *schedTenant, now sim.Time) {
	if !st.seeded {
		st.tokens = float64(s.burst)
		st.last = now
		st.seeded = true
		return
	}
	if now <= st.last {
		return
	}
	st.tokens += float64(st.cfg.BandwidthBps) * float64(now-st.last) / 1e9
	if b := float64(s.burst); st.tokens > b {
		st.tokens = b
	}
	st.last = now
}

// armTimer schedules a wake at the virtual instant the earliest
// token-blocked tenant becomes eligible. Deduplicated: an already-armed
// earlier-or-equal wake covers this request.
func (s *scheduler) armTimer(at sim.Time) {
	if s.timerAt > 0 && s.timerAt <= at {
		return
	}
	s.timerAt = at
	s.d.m.Eng.Schedule(at, func() {
		if s.timerAt == at {
			s.timerAt = 0
		}
		s.cond.Broadcast()
	})
}

// grant records a dispatch for stats and budgets and returns the command.
func (s *scheduler) grant(p *sim.Proc, st *schedTenant, f fetched) fetched {
	st.inflight++
	st.dispatched++
	st.bytes += f.cost
	st.oQueued.Set(float64(len(st.ready)))
	st.oInflight.Set(float64(st.inflight))
	st.oWait.Observe(time.Duration(p.Now() - f.enq))
	return f
}

// next blocks until the policy grants this worker a command.
//
// FIFO mode is the control arm: strict cross-tenant arrival order, exactly
// what a scheduler-less DPU would run, with the same worker topology.
//
// DRR mode scans tenants from the cursor. A tenant is passed over when it
// is empty, inflight-capped, token-short (the earliest refill instant is
// accumulated and a timer armed), or deficit-short. When every backlogged,
// unblocked tenant is deficit-short a new round starts: each earns one
// quantum. The cursor stays on the granted tenant, so a tenant
// consumes its deficit in consecutive grants (classic DRR service order);
// an emptied queue forfeits leftover deficit, so idleness earns nothing.
func (s *scheduler) next(p *sim.Proc) fetched {
	if s.fifo {
		for len(s.fifoQ) == 0 {
			s.cond.Wait(p)
		}
		f := s.fifoQ[0]
		s.fifoQ = s.fifoQ[1:]
		return s.grant(p, s.tenants[f.qs.tenant], f)
	}
	for {
		now := p.Now()
		n := len(s.tenants)
		deficitBlocked := false
		var tokenWake sim.Time = -1
		for i := 0; i < n; i++ {
			t := (s.rr + i) % n
			st := s.tenants[t]
			if len(st.ready) == 0 {
				continue
			}
			if st.cfg.MaxInflight > 0 && st.inflight >= st.cfg.MaxInflight {
				continue
			}
			cost := st.ready[0].cost
			if st.cfg.BandwidthBps > 0 {
				s.refill(st, now)
				if st.tokens < float64(cost) {
					needNs := (float64(cost) - st.tokens) * 1e9 / float64(st.cfg.BandwidthBps)
					if at := now + sim.Time(needNs) + 1; tokenWake < 0 || at < tokenWake {
						tokenWake = at
					}
					continue
				}
			}
			if st.deficit < cost {
				deficitBlocked = true
				continue
			}
			f := st.ready[0]
			st.ready = st.ready[1:]
			st.deficit -= cost
			if len(st.ready) == 0 {
				st.deficit = 0
			}
			if st.cfg.BandwidthBps > 0 {
				st.tokens -= float64(cost)
			}
			s.rr = t
			return s.grant(p, st, f)
		}
		if deficitBlocked {
			// New DRR round: every backlogged tenant earns one quantum,
			// clamped at two. The clamp is what bounds
			// burstiness — a tenant parked behind its inflight or bandwidth
			// budget keeps earning, but can never bank more than two rounds'
			// worth, so its post-unblock burst is bounded. The clamp also
			// covers the largest single command (2×quantum ≥ 512 + MaxIO
			// both ways), so a deficit-short backlogged tenant becomes
			// serveable within two grant passes — this loop cannot spin.
			for t := 0; t < n; t++ {
				st := s.tenants[t]
				if len(st.ready) == 0 {
					continue
				}
				st.deficit += s.quantum
				if max := 2 * s.quantum; st.deficit > max {
					st.deficit = max
				}
			}
			continue
		}
		if tokenWake > 0 {
			s.armTimer(tokenWake)
		}
		s.cond.Wait(p)
	}
}

// done returns a tenant's inflight slot after its command completed (or was
// found dead at dispatch) and wakes a parked worker, which may now be able
// to serve a previously inflight-capped tenant.
func (s *scheduler) done(p *sim.Proc, tenant int) {
	st := s.tenants[tenant]
	st.inflight--
	st.oInflight.Set(float64(st.inflight))
	s.cond.Signal()
}

// dispatchLoop is one DPU dispatch worker: it pulls scheduler grants and
// runs them to completion. Workers are the execution concurrency bound in
// multi-tenant mode — the analogue of the DPU's core budget.
func (d *Driver) dispatchLoop(p *sim.Proc) {
	for {
		f := d.sched.next(p)
		d.dispatchOne(p, f)
	}
}

// dispatchOne re-validates a scheduler grant and executes it. The liveness
// re-check matters: the command may have timed out or been failed by a
// reset while it sat in the scheduler's ready queue, in which case its slot
// may already belong to another command and must not be touched.
func (d *Driver) dispatchOne(p *sim.Proc, f fetched) {
	qs := f.qs
	if qs.live(f.gen, f.sqe.CID, f.sqe.Token) != nil && d.pullBuffers(p, &f) {
		d.execute(p, f)
	}
	d.sched.done(p, qs.tenant)
}
