package sim

import "fmt"

// Resource is a counting semaphore for processes: a pool of units, each
// held across work whose length is not known when it is acquired (the WAL
// commit lock, the NFS slot table). Waiters are served strictly FIFO. A
// server whose service time is known at issue books a Servers clock instead.
type Resource struct {
	eng     *Engine
	name    string
	cap     int
	free    int
	waiters []*Proc
}

// NewResource creates a resource of capacity units.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, cap: capacity, free: capacity}
}

// Acquire blocks p until a unit is free and then takes it. Nobody waits
// while a unit is free, so a free unit is taken at once.
func (r *Resource) Acquire(p *Proc) {
	if r.free > 0 {
		r.free--
		return
	}
	r.waiters = append(r.waiters, p)
	p.park()
	// When we wake, Release has handed us its unit.
}

// Release returns a unit, handing it to the longest waiter if there is one.
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		r.eng.scheduleWake(popFront(&r.waiters), r.eng.now)
		return
	}
	if r.free == r.cap {
		panic(fmt.Sprintf("sim: resource %q released with no unit held", r.name))
	}
	r.free++
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
