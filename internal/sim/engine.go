// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock measured in integer nanoseconds. Work is
// expressed either as plain scheduled events (callbacks) or as processes:
// coroutine-backed activities that may block on virtual time (Sleep), on
// resources (Resource.Acquire, RWLock.Lock), on mailboxes (Mailbox.Recv) or
// on condition variables (Cond.Wait). At any instant exactly one process or
// event callback is running, so simulations are deterministic and data
// structures shared between processes need no locking.
//
// Execution model: the event loop and every plain-event callback run on the
// goroutine that called Run; a process body runs on the process's coroutine
// (iter.Pull). An activation with other work interleaved costs two switches:
// one from the loop into the coroutine to wake the process, one back when it
// parks. Two events cost less, in the same (at, seq) order: a sleeper whose
// own wake-up is the next event advances the clock in place without leaving
// its coroutine (Proc.wakeAt), and a wake-up or event for the current instant
// is queued in a FIFO instead of the heap (Engine.push). That FIFO is the
// instant's one ready set: when the clock moves, the heap's other entries for
// the new instant join it (Engine.pop). An event may also give its place to
// a parked process (Cond.ResumeAt): the process runs inside the event, with
// no wake-up of its own. A panic in a process body surfaces from Run.
//
// Determinism: events scheduled for the same virtual time fire in the order
// they were scheduled (a monotonically increasing sequence number breaks
// ties). The engine also carries a seeded PRNG so workloads are repeatable.
package sim

import (
	"cmp"
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common duration units, usable as "5 * sim.Microsecond".
const (
	Nanosecond  time.Duration = 1
	Microsecond               = 1000 * Nanosecond
	Millisecond               = 1000 * Microsecond
	Second                    = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts a virtual-time difference into a time.Duration.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// event is one heap entry. Its body is a func, a record (ScheduleStep) or
// a process's wake-up, which carries the process itself: a closure there
// would heap-allocate once per Sleep on every hot path.
type event struct {
	at  Time
	seq uint64
	s   Stepper
}

// A Stepper is an event body that is a record: scheduling one allocates
// nothing, where each method value bound for Schedule costs its record one.
type Stepper interface{ Step() }

type funcStep func() // one pointer: a Stepper without an allocation

func (f funcStep) Step() { f() }

type wakeStep Proc

func (w *wakeStep) Step() { p := (*Proc)(w); p.eng.wake(p) }

// eventHeap is a hand-rolled binary min-heap. container/heap would box every
// event through its `any` interface on Push and Pop — two allocations per
// scheduled event, which dominates the allocation profile of I/O hot paths
// (every Sleep is one event). Pop order is independent of the implementation:
// seq breaks every tie, so event priorities form a total order.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popEvent() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the body's reference so it can be collected
	s = s[:n]
	*h = s
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(r, child) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now    Time
	events eventHeap
	// nowq[nowHead:] holds, in seq order, every pending event for the
	// instant the clock already shows; the clock stays put until it drains.
	// The heap holds only later instants.
	nowq    []event
	nowHead int
	seq     uint64
	rng     *rand.Rand

	// procs holds every process the engine has made and not yet seen die,
	// for Shutdown; Go reuses processes, so it is as long as the most that
	// were ever live at once.
	procs []*Proc

	// The engine's own work, counted since NewEngine. Parks counts park
	// calls: each resumes through two coroutine switches. It also stamps
	// Proc.parkSeq, which gives Shutdown its order. HeapPushes counts events
	// that went onto the heap, FIFOPops events popped from the same-instant
	// queue (all but the first of each instant the clock moves to), and
	// InPlace sleeps whose wake-up advanced the clock in place.
	Parks      int64
	HeapPushes int64
	FIFOPops   int64
	InPlace    int64

	// free holds processes whose body has returned, for Go to reuse.
	free []*Proc
	// running is the process currently executing, if any.
	running *Proc
	// inRun reports whether the event loop is active; limit is the bound of
	// that RunUntil, which an in-place advance must not pass.
	inRun bool
	limit Time
}

// NewEngine returns an engine with the clock at zero and a PRNG seeded with
// the given seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG. It must only be used from
// process or event context (never concurrently with Run from outside).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule registers fn to run at the given absolute virtual time. Scheduling
// in the past panics: it would silently reorder causality.
func (e *Engine) Schedule(at Time, fn func()) { e.ScheduleStep(at, funcStep(fn)) }

// At runs fn at virtual time at: as an event, or at once from the caller
// when at is not after now. It is SleepUntil for a chain of events: the
// event takes the sequence number a sleeper's wake-up would, and a step that
// would not sleep uses none.
func (e *Engine) At(at Time, fn func()) {
	if at <= e.now {
		fn()
		return
	}
	e.push(event{at: at, s: funcStep(fn)})
}

// ScheduleStep is Schedule for a record: s.Step runs at virtual time at.
func (e *Engine) ScheduleStep(at Time, s Stepper) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.push(event{at: at, s: s})
}

// push gives ev the next sequence number and queues it. An event for the
// current instant sorts behind everything pending for now (smaller seq) and
// ahead of everything later (larger at): it joins the back of nowq.
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	if ev.at == e.now {
		e.nowq = append(e.nowq, ev)
		return
	}
	e.HeapPushes++
	e.events.pushEvent(ev)
}

// pop returns the next event due by e.limit in (at, seq) order. nowq holds
// the current instant's events in seq order, so its head comes first. Only
// when it is empty does the clock move, to the heap's first entry: pop
// returns that entry and moves the heap's other entries for the same instant
// into nowq, so the heap never holds the current instant.
func (e *Engine) pop() (ev event, ok bool) {
	if e.nowHead < len(e.nowq) {
		ev = e.nowq[e.nowHead]
		e.nowq[e.nowHead] = event{} // drop the body's reference so it can be collected
		e.nowHead++
		e.FIFOPops++
		if e.nowHead == len(e.nowq) {
			e.nowq, e.nowHead = e.nowq[:0], 0
		}
		return ev, true
	}
	if e.events.Len() == 0 || e.events.peek().at > e.limit {
		return event{}, false
	}
	ev = e.events.popEvent()
	if ev.at <= e.now {
		panic("sim: event heap held the current instant")
	}
	e.now = ev.at
	if len(e.events) > 0 && e.events[0].at == ev.at {
		return e.queueTies(ev), true
	}
	return ev, true
}

// queueTies moves the heap's other entries for the instant of first, the
// event pop is returning, into nowq and returns first. It is out of line and
// passes first through so that pop's common case, no tie, stays as small as
// a plain heap pop.
func (e *Engine) queueTies(first event) event {
	for len(e.events) > 0 && e.events[0].at == first.at {
		e.nowq = append(e.nowq, e.events.popEvent())
	}
	return first
}

// After registers fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+Time(d), fn)
}

// Run processes events until the event heap is empty. Processes blocked on
// mailboxes or conditions with no pending events do not keep Run alive; they
// simply stay parked (a subsequent Run may wake them).
func (e *Engine) Run() { e.RunUntil(Time(1<<62 - 1)) }

// RunUntil processes events with timestamps <= limit, then advances the clock
// to limit (if the clock has not already passed it). Events scheduled after
// limit remain pending.
func (e *Engine) RunUntil(limit Time) {
	if e.inRun {
		panic("sim: Run re-entered")
	}
	if limit < e.now {
		return // everything pending is at or after now
	}
	e.inRun, e.limit = true, limit
	defer func() { e.inRun = false }()
	for ev, ok := e.pop(); ok; ev, ok = e.pop() {
		if w, wake := ev.s.(*wakeStep); wake { // the hot case, called directly
			e.wake((*Proc)(w))
		} else {
			ev.s.Step()
		}
	}
	if e.now < limit && limit < Time(1<<62-1) {
		e.now = limit
	}
}

// PendingEvents returns the number of scheduled events, heap and nowq.
func (e *Engine) PendingEvents() int { return e.events.Len() + len(e.nowq) - e.nowHead }

// Shutdown kills every parked process, in the order they parked, and
// releases the free ones. It must be called from outside process context
// (after Run returns). Killed processes unwind via panic, running their
// deferred functions; the engine is unusable for those procs afterwards but
// may continue to schedule plain events. A process whose start is pending
// gives up its coroutine: it starts on a new one if the engine runs again.
func (e *Engine) Shutdown() {
	if e.running != nil {
		panic("sim: Shutdown called from process context")
	}
	parked := slices.DeleteFunc(slices.Clone(e.procs), func(p *Proc) bool { return p.state != procParked })
	slices.SortFunc(parked, func(a, b *Proc) int { return cmp.Compare(a.parkSeq, b.parkSeq) })
	for _, p := range parked {
		p.state = procDead
		e.running = p
		p.stop() // park's yield returns false: the body unwinds as procKilled
		e.running = nil
	}
	for _, p := range e.procs { // the free ones, and a start pending on a reused coroutine
		if p.state != procDead && p.next != nil {
			p.stop()
			p.next, p.stop = nil, nil
		}
	}
	e.free = nil
	e.procs = slices.DeleteFunc(e.procs, func(p *Proc) bool { return p.state != procStarting })
}

// wake transfers control to p until it parks again or terminates. Must be
// called only from the engine loop (with no process running). A start event
// begins the body, on a new coroutine if p has none. Waking a dead process
// is a no-op: a kill may leave wake-ups behind. A wake for a free process
// would resume whatever body reuses it next, so it panics.
func (e *Engine) wake(p *Proc) {
	if e.running != nil {
		panic("sim: wake with a process already running")
	}
	switch p.state {
	case procDead:
		return
	case procStarting:
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.loop)
		}
	case procParked:
	default:
		panic(fmt.Sprintf("sim: waking proc %q that is not parked", p.name))
	}
	p.state = procRunning
	e.running = p
	p.next()
	e.running = nil
}

// scheduleWake arranges for p to resume at time at. It pushes a proc-carrying
// event directly — no closure — so a Sleep on a steady-state hot path
// schedules its wake-up without touching the heap allocator.
func (e *Engine) scheduleWake(p *Proc, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling wake at %v before now %v", at, e.now))
	}
	e.push(event{at: at, s: (*wakeStep)(p)})
}
