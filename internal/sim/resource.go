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

// RWLock is a readers-writer lock for processes, with reader preference: a
// reader enters whenever no writer holds it, even past a waiting writer, and a
// writer when nobody does. Unlock grants the lock, in arrival order, to every
// waiter that can then enter and wakes only those, so a blocked Lock parks
// once. The zero value is unlocked.
type RWLock struct {
	holders int // readers inside, or -1 while a writer is
	waiters []rwWaiter
}

type rwWaiter struct {
	p     *Proc
	write bool
}

// Lock takes the lock for p, exclusively if write is set, parking until granted.
func (l *RWLock) Lock(p *Proc, write bool) {
	if !l.enter(write) {
		l.waiters = append(l.waiters, rwWaiter{p, write})
		p.park()
	}
}

// enter adds one holder if the lock admits it now.
func (l *RWLock) enter(write bool) bool {
	switch {
	case !write && l.holders >= 0:
		l.holders++
	case write && l.holders == 0:
		l.holders = -1
	default:
		return false
	}
	return true
}

// Unlock drops one hold and grants the lock to the waiters that can then
// enter; the others keep their place. It reports whether the lock is left free.
func (l *RWLock) Unlock() (free bool) {
	if l.holders == 0 {
		panic("sim: unlock of an unlocked RWLock")
	}
	l.holders = max(l.holders-1, 0)
	kept := l.waiters[:0]
	for _, w := range l.waiters {
		if l.enter(w.write) {
			w.p.eng.scheduleWake(w.p, w.p.eng.now)
		} else {
			kept = append(kept, w)
		}
	}
	clear(l.waiters[len(kept):])
	l.waiters = kept
	return l.holders == 0
}
