package sim

import "fmt"

// Cond is a condition variable for processes. Unlike sync.Cond there is no
// associated lock: processes already run one at a time, so checking the
// predicate and calling Wait is atomic with respect to other processes.
// A used Cond must not be copied: its waiter queue points into its own first.
type Cond struct {
	eng     *Engine
	name    string
	waiters []*Proc
	// first backs waiters until two processes wait at once: the common
	// one-waiter condition (a command's completion) never allocates.
	first [1]*Proc
}

// NewCond creates a condition variable.
func NewCond(eng *Engine, name string) *Cond {
	return &Cond{eng: eng, name: name}
}

// Init sets up a zero Cond in place: one embedded by value in its owner.
func (c *Cond) Init(eng *Engine, name string) { c.eng, c.name = eng, name }

// Wait parks p until another process calls Signal or Broadcast. As with any
// condition variable, re-check the predicate after waking.
func (c *Cond) Wait(p *Proc) {
	if c.waiters == nil {
		c.waiters = c.first[:0]
	}
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	c.eng.scheduleWake(popFront(&c.waiters), c.eng.now)
}

// ResumeAt resumes the oldest waiter at virtual time at: by a wake-up
// event, or, when at is not after now, at once in the calling event's place
// (a process running panics), so an event that did the waiter's timed work
// for it wakes it once, with the sequence numbers of a wake and a sleep.
// The waiter may advance the clock: the caller must not read it after.
func (c *Cond) ResumeAt(at Time) {
	if len(c.waiters) == 0 {
		panic(fmt.Sprintf("sim: ResumeAt on %q with no waiter", c.name))
	}
	p := popFront(&c.waiters)
	if at > c.eng.now {
		c.eng.scheduleWake(p, at)
		return
	}
	c.eng.wake(p)
}

// Broadcast wakes every waiter in FIFO order. Wakes are scheduled, not run:
// nobody waits again during the loop, so the queue keeps its backing array.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.eng.scheduleWake(p, c.eng.now)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// popFront removes and returns the first element of the FIFO *q. A queue
// that drains rewinds onto the slot it just vacated, so the common traffic of
// one waiter at a time reuses that slot instead of allocating per wait.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	var zero T
	s[0] = zero
	if len(s) == 1 {
		*q = s[:0]
	} else {
		*q = s[1:]
	}
	return v
}
