// Package cpu models CPU pools (the host Xeon and the DPU's TaiShan cores).
// Work is charged in cycles; a pool converts cycles to virtual time at its
// clock frequency and serializes work over a finite number of cores, a
// sim.Servers clock that books each execution at issue. The clock integrates
// busy time so experiments can report "cores consumed" and "% CPU usage"
// exactly the way the paper does.
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
	clock  *sim.Servers

	// obs hooks, cached at AttachObs time; nil (a no-op sink) when
	// observability is off, so the hot path stays allocation-free.
	busyNs *obs.Counter
	execs  *obs.Counter

	// o is the hub (nil when observability is off): executions record
	// CPU-compute intervals and run-queue delays record wait intervals on
	// the caller's innermost span.
	o        *obs.Obs
	execKind string
	waitKind string

	// SwitchOverhead is added to every execution that finds the pool
	// contended (no core free at issue), modeling context-switch and
	// run-queue cost. The paper attributes the performance drop past
	// 32 threads on the 24-core DPU to exactly this effect.
	SwitchOverhead time.Duration

	markBusy float64 // busy core-seconds at Mark
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
		clock:  sim.NewServers(cores),
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
	c.o = o
	c.execKind = "cpu." + c.name
	c.waitKind = "cpu." + c.name + ".runq"
}

// Name returns the pool name.
func (c *Pool) Name() string { return c.name }

// CyclesToDuration converts a cycle count to wall time at this pool's clock.
func (c *Pool) CyclesToDuration(cycles int64) time.Duration {
	return time.Duration(cycles * int64(time.Second) / c.freqHz)
}

// Exec runs cycles of work on one core, blocking p for the computed time
// plus any queueing delay. If no core is free at issue the configured switch
// overhead is added.
func (c *Pool) Exec(p *sim.Proc, cycles int64) {
	c.ExecDuration(p, c.CyclesToDuration(cycles))
}

// ExecDuration runs a fixed-duration piece of work on one core: it books the
// core (Book), p sleeps once, until the work ends, and the execution is
// counted then.
func (c *Pool) ExecDuration(p *sim.Proc, d time.Duration) {
	now := p.Now()
	start, end := c.Book(d)
	p.SleepUntil(end)
	c.o.Attr(p, obs.CompWait, c.waitKind, now, start)
	c.o.Attr(p, obs.CompCPU, c.execKind, start, end)
	c.execs.Inc()
	c.busyNs.Add(int64(end - start))
}

// Book books the core that frees first for d of work issued now, plus the
// switch overhead if it frees later, and returns when the work starts and
// ends; waiting is the caller's. Only ExecDuration publishes the execution.
func (c *Pool) Book(d time.Duration) (start, end sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("cpu: pool %q negative work %v", c.name, d))
	}
	now := c.eng.Now()
	start = c.clock.Grant(now)
	if start > now {
		d += c.SwitchOverhead
	}
	end = start + sim.Time(d)
	c.clock.Book(start, end)
	return start, end
}

// busySeconds returns the core-seconds booked before now.
func (c *Pool) busySeconds() float64 { return float64(c.clock.Busy(c.eng.Now())) / 1e9 }

// Mark starts a measurement window.
func (c *Pool) Mark() {
	c.markBusy = c.busySeconds()
	c.markTime = c.eng.Now()
}

// CoresUsed returns the mean number of busy cores since Mark.
func (c *Pool) CoresUsed() float64 {
	elapsed := c.eng.Now().Sub(c.markTime).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return (c.busySeconds() - c.markBusy) / elapsed
}

// Usage returns mean utilization since Mark as a fraction of all cores
// (0..1), the paper's "% CPU usage".
func (c *Pool) Usage() float64 {
	return c.CoresUsed() / float64(c.cores)
}
