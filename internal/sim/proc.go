package sim

import (
	"fmt"
	"iter"
	"os"
	"runtime/debug"
	"time"
)

// Proc is a simulation process: a body that runs on a carrier coroutine in
// lockstep with the engine. Only one process runs at a time; every blocking
// operation switches back to the event loop.
type Proc struct {
	eng  *Engine
	name string
	fn   func(p *Proc)
	c    *carrier // nil until the start event runs
	dead bool
	// parkIdx is the process's slot in Engine.parked while it is parked;
	// parkSeq is the Engine.Parks stamp of its latest park.
	parkIdx int
	parkSeq int64

	// Ctx is an opaque per-process slot for cross-layer instrumentation:
	// internal/obs hangs the process's span stack here. sim itself never
	// reads or writes it. Safe without locking because only one process
	// runs at a time.
	Ctx any
}

// procKilled is the panic value used to unwind a process killed by Shutdown.
type procKilled struct{ name string }

// carrier is a coroutine that runs process bodies one after another. When a
// body returns the carrier parks itself on Engine.idle and the next process
// to start takes it over, so Go allocates a Proc and nothing else (Fork's
// children and short-lived helpers start and end all the time). Idle
// carriers are released by Shutdown.
type carrier struct {
	eng   *Engine
	p     *Proc // the process whose body runs now, or runs on the next resume
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// takeCarrier returns an idle carrier, or a new one if none is idle.
func (e *Engine) takeCarrier() *carrier {
	if n := len(e.idle) - 1; n >= 0 {
		c := e.idle[n]
		e.idle = e.idle[:n]
		return c
	}
	c := &carrier{eng: e}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() {
		c.eng.idle = append(c.eng.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the body of c.p and reports whether the carrier can take
// another process: false once Shutdown has stopped it. Any other panic leaves
// through iter.Pull, which re-raises it in Run on the engine's goroutine; its
// stack is gone by then, so it is printed here.
func (c *carrier) run() (reusable bool) {
	p := c.p
	defer func() {
		p.dead = true
		c.p = nil
		if r := recover(); r != nil {
			if _, killed := r.(procKilled); !killed {
				fmt.Fprintf(os.Stderr, "sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
				c.eng.running = nil
				panic(r)
			}
		}
	}()
	p.fn(p)
	return true
}

// Go spawns a new process. The process body starts executing at the current
// virtual time (as a scheduled event), in lockstep with the engine.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.scheduleWake(p, e.now)
	return p
}

// Fork runs body(c, i) for each i in [0, n), each in a child process named
// name, and parks p until the last child returns. The children start in index
// order at the current instant, and the last one to return wakes p directly.
// That is n start events, one park and one wake at the last return: the
// events of spawning n processes that count down to a Broadcast on a Cond p
// waits on. For n == 0 Fork returns at once.
func (p *Proc) Fork(name string, n int, body func(c *Proc, i int)) {
	if n == 0 {
		return
	}
	f := &fork{parent: p, body: body, left: n}
	child := f.child
	for range n {
		p.eng.Go(name, child)
	}
	p.park()
}

// fork is the state one Fork's children share.
type fork struct {
	parent *Proc
	body   func(c *Proc, i int)
	next   int // index of the next child to start
	left   int // children that have not returned
}

// child is each child's body. Start events at one instant run in the order
// they were scheduled, so the k-th child to start is child k.
func (f *fork) child(c *Proc) {
	i := f.next
	f.next++
	f.body(c, i)
	if f.left--; f.left == 0 {
		c.eng.scheduleWake(f.parent, c.eng.now)
	}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// park blocks the process until the engine wakes it. The caller must have
// already arranged for a wake-up (a scheduled event, a resource grant, a
// mailbox delivery...). If the process is killed while parked, park unwinds
// the body via panic so deferred cleanups run.
func (p *Proc) park() {
	e := p.eng
	if e.running != p {
		panic(fmt.Sprintf("sim: proc %q parking while not running", p.name))
	}
	e.running = nil
	e.Parks++
	p.parkSeq = e.Parks
	p.parkIdx = len(e.parked)
	e.parked = append(e.parked, p)
	if !p.c.yield(struct{}{}) {
		panic(procKilled{p.name})
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %q sleeping negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.wakeAt(p.eng.now + Time(d))
}

// SleepUntil suspends the process until absolute virtual time t. If t is in
// the past it returns immediately.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.wakeAt(t)
}

// wakeAt suspends the process until its wake-up at time at comes up in
// (at, seq) order; Sleep and SleepUntil are argument checks in front of it.
// When nothing is pending at or before at, that wake-up is the very
// event the loop would pop next — nothing scheduled later can precede it, and
// a tie would need a smaller seq, so it would be pending already. The round
// trip through the heap and the loop is then skipped: the wake's sequence
// number is consumed (every later tie breaks as it would have), the clock
// moves to at, and the process runs on. It is the same run minus two switches.
// Every other case schedules the wake and parks: a tie at at goes to the
// earlier seq, a wake past the run's limit must stay pending, and a caller
// that is not a live running process — event context, somebody else's Proc,
// a deferred call in a body Shutdown is killing (it sets running too, but
// marks the process dead first) — must reach park's panics.
func (p *Proc) wakeAt(at Time) {
	e := p.eng
	if e.running == p && !p.dead && at <= e.limit && e.nowHead == len(e.nowq) &&
		(e.events.Len() == 0 || e.events.peek().at > at) {
		e.seq++
		e.now = at
		e.InPlace++
		return
	}
	e.scheduleWake(p, at)
	p.park()
}
