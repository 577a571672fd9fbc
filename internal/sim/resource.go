package sim

import (
	"fmt"
	"time"
)

// Resource models a pool of identical servers (CPU cores, DMA engines, disk
// channels...). Processes acquire units, hold them for some virtual time and
// release them. Waiters are served FIFO. The resource integrates units-in-use
// over time so callers can compute utilization over a measurement window.
type Resource struct {
	eng  *Engine
	name string
	cap  int
	used int

	waiters []resWaiter

	// busy is the integral of used over time, in unit-nanoseconds.
	busy       int64
	lastChange Time

	// Grants counts successful acquisitions; Waits counts acquisitions
	// that had to queue.
	Grants int64
	Waits  int64
	// waitTime accumulates total queueing delay in ns.
	waitTime int64

	// OnWait, when set, observes queued acquisitions: it is invoked at grant
	// time with the process that waited and the time it began queueing. The
	// process is still parked when the hook runs, so its state (e.g. its
	// span stack) is exactly as it was when it started waiting. Installed by
	// the profiling layer; nil costs one pointer test per grant.
	OnWait func(p *Proc, since Time)
}

type resWaiter struct {
	p     *Proc
	n     int
	since Time
}

// NewResource creates a resource with the given capacity.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, cap: capacity}
}

// Cap returns the resource capacity in units.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.used }

// QueueLen returns the number of processes waiting for units.
func (r *Resource) QueueLen() int { return len(r.waiters) }

func (r *Resource) account() {
	now := r.eng.now
	r.busy += int64(r.used) * int64(now-r.lastChange)
	r.lastChange = now
}

// BusyUnitSeconds returns the cumulative integral of units-in-use over time,
// in unit-seconds. Sample it at the start and end of a measurement window;
// the difference divided by the window length is the mean units in use.
func (r *Resource) BusyUnitSeconds() float64 {
	r.account()
	return float64(r.busy) / 1e9
}

// MeanWait returns the average queueing delay across all acquisitions.
func (r *Resource) MeanWait() time.Duration {
	if r.Grants == 0 {
		return 0
	}
	return time.Duration(r.waitTime / r.Grants)
}

// Acquire blocks p until n units are available and then takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.cap {
		panic(fmt.Sprintf("sim: resource %q acquire %d of %d", r.name, n, r.cap))
	}
	if len(r.waiters) == 0 && r.used+n <= r.cap {
		r.account()
		r.used += n
		r.Grants++
		return
	}
	r.Waits++
	r.waiters = append(r.waiters, resWaiter{p: p, n: n, since: r.eng.now})
	p.park()
	// When we wake, our grant has already been applied by Release.
}

// TryAcquire takes n units if immediately available, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.cap {
		panic(fmt.Sprintf("sim: resource %q tryacquire %d of %d", r.name, n, r.cap))
	}
	if len(r.waiters) == 0 && r.used+n <= r.cap {
		r.account()
		r.used += n
		r.Grants++
		return true
	}
	return false
}

// Release returns n units and hands them to queued waiters (FIFO, skipping
// none: strict FIFO avoids starvation and keeps runs deterministic).
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.used {
		panic(fmt.Sprintf("sim: resource %q release %d with %d in use", r.name, n, r.used))
	}
	r.account()
	r.used -= n
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.used+w.n > r.cap {
			break
		}
		popFront(&r.waiters)
		r.used += w.n
		r.Grants++
		r.waitTime += int64(r.eng.now - w.since)
		if r.OnWait != nil {
			r.OnWait(w.p, w.since)
		}
		r.eng.scheduleWake(w.p, r.eng.now)
	}
}

// Use acquires n units, holds them for d of virtual time, and releases them.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}
