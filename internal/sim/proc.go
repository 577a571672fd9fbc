package sim

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// Proc is a simulation process: a body that runs on the process's own
// coroutine in lockstep with the engine. Only one process runs at a time;
// every blocking operation switches back to the event loop. A Proc whose body
// has returned waits on Engine.free for the next Go to reuse it.
type Proc struct {
	eng   *Engine
	name  string
	fn    func(p *Proc)
	state procState
	// The coroutine, made at the first start: next resumes it, stop kills
	// it, and yield, called on it, parks it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// parkSeq is the Engine.Parks stamp of the process's latest park.
	parkSeq int64

	// The state of the Fork the process is parked in: the children's body,
	// the next child's index, the children left, and child, the method
	// value forkChild, built once.
	forkBody           func(c *Proc, i int)
	forkNext, forkLeft int
	child              func(c *Proc)

	// Ctx is an opaque per-process slot for cross-layer instrumentation:
	// internal/obs hangs the process's span stack here. sim itself never
	// reads or writes it (it survives reuse). Safe without locking because
	// only one process runs at a time.
	Ctx any
}

// procState is where a process is in its life (DESIGN.md §2, "Process
// lifetime").
type procState uint8

const (
	procStarting procState = iota // start event pending
	procRunning
	procParked
	procFree // body returned: on Engine.free
	procDead // killed by Shutdown, or its body panicked: never reused
)

// procKilled is the panic value used to unwind a process killed by Shutdown.
type procKilled struct{ name string }

// loop is the process's coroutine: one body per start, and Engine.free in
// between.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() {
		p.eng.free = append(p.eng.free, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the body and reports whether the process can be reused: false
// once Shutdown has killed it. Any other panic leaves through iter.Pull,
// which re-raises it in Run on the engine's goroutine; its stack is gone by
// then, so it is printed here.
func (p *Proc) run() (reusable bool) {
	defer func() {
		if r := recover(); r != nil {
			p.state = procDead
			if _, killed := r.(procKilled); !killed {
				fmt.Fprintf(os.Stderr, "sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
				p.eng.running = nil
				panic(r)
			}
		}
	}()
	p.fn(p)
	p.fn, p.state = nil, procFree
	return true
}

// Go spawns a process, reusing a free one if any. The body starts executing
// at the current virtual time (as a scheduled event), in lockstep with the
// engine. The returned Proc is this body's only until the body returns.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.free) - 1; n >= 0 {
		p, e.free[n], e.free = e.free[n], nil, e.free[:n]
	} else {
		p = &Proc{eng: e}
		e.procs = append(e.procs, p)
	}
	p.name, p.fn, p.state = name, fn, procStarting
	e.scheduleWake(p, e.now)
	return p
}

// Fork runs body(c, i) for each i in [0, n), each in a child process named
// name, and parks p until the last child returns. The children start in index
// order at the current instant, and the last one to return wakes p directly.
// That is n start events, one park and one wake at the last return: the
// events of spawning n processes that count down to a Broadcast on a Cond p
// waits on. For n == 0 Fork returns at once. The join state lives in p.
func (p *Proc) Fork(name string, n int, body func(c *Proc, i int)) {
	if n == 0 {
		return
	}
	if p.child == nil {
		p.child = p.forkChild
	}
	p.forkBody, p.forkNext, p.forkLeft = body, 0, n
	for range n {
		p.eng.Go(name, p.child)
	}
	p.park()
	p.forkBody = nil
}

// forkChild is the body of p's Fork children. Start events at one instant
// run in the order they were scheduled, so the k-th child to start is child k.
func (p *Proc) forkChild(c *Proc) {
	i := p.forkNext
	p.forkNext++
	p.forkBody(c, i)
	if p.forkLeft--; p.forkLeft == 0 {
		p.eng.scheduleWake(p, p.eng.now)
	}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// park blocks the process until the engine wakes it. The caller must have
// already arranged for a wake-up (a scheduled event, a resource grant, a
// mailbox delivery...). If the process is killed while parked, park unwinds
// the body via panic so deferred cleanups run.
func (p *Proc) park() {
	e := p.eng
	p.mustRun()
	e.running = nil
	e.Parks++
	p.state = procParked
	p.parkSeq = e.Parks
	if !p.yield(struct{}{}) {
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
	if e.running == p && p.state == procRunning && at <= e.limit && e.nowHead == len(e.nowq) &&
		(e.events.Len() == 0 || e.events.peek().at > at) {
		e.seq++
		e.now = at
		e.InPlace++
		return
	}
	p.mustRun() // before the wake is scheduled: none may be left pending
	e.scheduleWake(p, at)
	p.park()
}

// mustRun panics unless p is the running process: only it may park.
func (p *Proc) mustRun() {
	if p.eng.running != p {
		panic(fmt.Sprintf("sim: proc %q parking while not running", p.name))
	}
}
