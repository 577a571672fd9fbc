// Package cpu models CPU pools (the host Xeon and the DPU's TaiShan cores).
// Work is charged in cycles; a pool converts cycles to virtual time at its
// clock frequency and serializes work over a finite number of cores. The
// pool integrates busy time so experiments can report "cores consumed" and
// "% CPU usage" exactly the way the paper does.
package cpu

import (
	"fmt"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Pool is a fixed set of identical cores.
type Pool struct {
	eng    *sim.Engine
	name   string
	cores  int
	freqHz int64
	res    *sim.Resource

	// obs hooks, cached at AttachObs time; nil (a no-op sink) when
	// observability is off, so the hot path stays allocation-free.
	busyNs *obs.Counter
	execs  *obs.Counter

	// po is non-nil only in profiling mode: executions record CPU-compute
	// intervals and run-queue delays record wait intervals on the caller's
	// innermost span.
	po       *obs.Obs
	execKind string
	waitKind string

	// SwitchOverhead is added to every execution that finds the pool
	// contended (more runnable work than cores), modeling context-switch
	// and run-queue cost. The paper attributes the performance drop past
	// 32 threads on the 24-core DPU to exactly this effect.
	SwitchOverhead time.Duration

	markBusy float64
	markTime sim.Time
}

// NewPool creates a CPU pool.
func NewPool(eng *sim.Engine, name string, cores int, freqHz int64) *Pool {
	if cores <= 0 || freqHz <= 0 {
		panic(fmt.Sprintf("cpu: pool %q cores=%d freq=%d", name, cores, freqHz))
	}
	return &Pool{
		eng:    eng,
		name:   name,
		cores:  cores,
		freqHz: freqHz,
		res:    sim.NewResource(eng, name, cores),
	}
}

// AttachObs registers this pool's busy-time and execution counters
// ("cpu.<name>.busy_ns", "cpu.<name>.execs"). Safe with a nil hub.
func (c *Pool) AttachObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	// Pool names are a closed set (host, dpu). //dpclint:ok
	c.busyNs = o.Counter("cpu." + c.name + ".busy_ns")
	c.execs = o.Counter("cpu." + c.name + ".execs") // closed set, as above //dpclint:ok
	if po := o.Prof(); po != nil {
		c.po = po
		c.execKind = "cpu." + c.name
		c.waitKind = "cpu." + c.name + ".runq"
		c.res.OnWait = func(p *sim.Proc, since sim.Time) {
			po.Attr(p, obs.CompWait, c.waitKind, since, c.eng.Now())
		}
	}
}

// Name returns the pool name.
func (c *Pool) Name() string { return c.name }

// CyclesToDuration converts a cycle count to wall time at this pool's clock.
func (c *Pool) CyclesToDuration(cycles int64) time.Duration {
	return time.Duration(cycles * int64(time.Second) / c.freqHz)
}

// Exec runs cycles of work on one core, blocking p for the computed time
// plus any queueing delay. If the pool is oversubscribed the configured
// switch overhead is added.
func (c *Pool) Exec(p *sim.Proc, cycles int64) {
	c.ExecDuration(p, c.CyclesToDuration(cycles))
}

// ExecDuration runs a fixed-duration piece of work on one core.
func (c *Pool) ExecDuration(p *sim.Proc, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("cpu: pool %q negative work %v", c.name, d))
	}
	contended := c.res.InUse() >= c.cores || c.res.QueueLen() > 0
	c.res.Acquire(p, 1)
	if contended && c.SwitchOverhead > 0 {
		d += c.SwitchOverhead
	}
	if c.po != nil {
		t0 := p.Now()
		p.Sleep(d)
		c.po.Attr(p, obs.CompCPU, c.execKind, t0, p.Now())
	} else {
		p.Sleep(d)
	}
	c.res.Release(1)
	c.execs.Inc()
	c.busyNs.Add(int64(d))
}

// InUse returns the number of busy cores right now.
func (c *Pool) InUse() int { return c.res.InUse() }

// Mark starts a measurement window.
func (c *Pool) Mark() {
	c.markBusy = c.res.BusyUnitSeconds()
	c.markTime = c.eng.Now()
}

// CoresUsed returns the mean number of busy cores since Mark.
func (c *Pool) CoresUsed() float64 {
	elapsed := c.eng.Now().Sub(c.markTime).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return (c.res.BusyUnitSeconds() - c.markBusy) / elapsed
}

// Usage returns mean utilization since Mark as a fraction of all cores
// (0..1), the paper's "% CPU usage".
func (c *Pool) Usage() float64 {
	return c.CoresUsed() / float64(c.cores)
}
