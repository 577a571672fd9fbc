package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// key is the priority an event or wake-up was scheduled under: every
// scheduling consumes one sequence number, so reading e.seq+1 just before the
// call gives the seq the engine is about to assign.
type key struct {
	at  Time
	seq uint64
}

func (k key) String() string { return fmt.Sprintf("(%d,%d)", k.at, k.seq) }

// orderWorld runs a seeded random program over every way the engine can
// schedule something and logs, at each dispatch, the key it was scheduled
// under. Whoever schedules a wake-up writes the key into the woken process's
// slot (Proc.Ctx) by peeking at the primitive's own FIFO; the process logs it
// when it runs again.
type orderWorld struct {
	t         *testing.T
	e         *Engine
	rng       *rand.Rand
	log       []key
	scheduled int // keys handed out; scheduled - len(log) events must be pending

	gate    *Cond
	mb      *Mailbox[int]
	cores   *Resource
	spawns  int
	inPlace int // timed waits that returned without parking
}

type slot struct {
	k    key
	woke bool
}

func (w *orderWorld) next(at Time, i int) key {
	w.scheduled++
	return key{at, w.e.seq + 1 + uint64(i)}
}

// willWake notes that the i-th scheduling from now wakes p at the current instant.
func (w *orderWorld) willWake(p *Proc, i int) {
	s := p.Ctx.(*slot)
	if s.woke {
		w.t.Fatalf("proc %q woken twice", p.name)
	}
	s.k, s.woke = w.next(w.e.now, i), true
}

// woken logs the key p was woken under, if the call it returns from parked.
func (w *orderWorld) woken(p *Proc) {
	if s := p.Ctx.(*slot); s.woke {
		s.woke = false
		w.log = append(w.log, s.k)
	}
}

// timed runs one Sleep, SleepUntil or Yield that wakes at time at.
func (w *orderWorld) timed(at Time, call func()) {
	k, parks := w.next(at, 0), w.e.Parks
	call()
	if w.e.Parks == parks {
		w.inPlace++
	}
	w.log = append(w.log, k)
}

func (w *orderWorld) spawn(name string, steps int) {
	k := w.next(w.e.now, 0)
	p := w.e.Go(name, func(p *Proc) {
		w.log = append(w.log, k)
		for i := 0; i < steps; i++ {
			w.step(p)
		}
	})
	p.Ctx = &slot{}
}

func (w *orderWorld) signal() {
	if len(w.gate.waiters) > 0 {
		w.willWake(w.gate.waiters[0], 0)
	}
	w.gate.Signal()
}

func (w *orderWorld) broadcast() {
	for i, p := range w.gate.waiters {
		w.willWake(p, i)
	}
	w.gate.Broadcast()
}

// sending notes the receiver a message with room to land would wake.
func (w *orderWorld) sending() {
	if len(w.mb.buf) < w.mb.bound && len(w.mb.recvWaiters) > 0 {
		w.willWake(w.mb.recvWaiters[0], 0)
	}
}

// event schedules a plain event d from now; some of them signal, broadcast or
// post from event context, some chain another event.
func (w *orderWorld) event(d Time) {
	k := w.next(w.e.now+d, 0)
	act := w.rng.Intn(4)
	w.e.Schedule(k.at, func() {
		w.log = append(w.log, k)
		switch act {
		case 0:
			w.signal()
		case 1:
			w.broadcast()
		case 2:
			w.sending()
			w.mb.TrySend(0)
		case 3:
			w.event(Time(w.rng.Intn(3)))
		}
	})
}

// step is one random action of a process body. Delays are a few nanoseconds
// so ties and self-next sleeps are both common.
func (w *orderWorld) step(p *Proc) {
	e, rng := w.e, w.rng
	w.readySet(p.name)
	switch rng.Intn(12) {
	case 0, 1:
		if d := rng.Intn(5); d > 0 {
			w.timed(e.now+Time(d), func() { p.Sleep(time.Duration(d)) })
		} else {
			p.Sleep(0) // returns at once and schedules nothing
		}
	case 2:
		if at := e.now + Time(rng.Intn(5)-1); at > e.now {
			w.timed(at, func() { p.SleepUntil(at) })
		} else {
			p.SleepUntil(at) // likewise
		}
	case 3:
		w.timed(e.now, p.Yield)
	case 4:
		w.gate.Wait(p)
		w.woken(p)
	case 5:
		w.signal()
	case 6:
		w.broadcast()
	case 7: // a send with room hands the message to the oldest parked receiver
		if len(w.mb.buf) < w.mb.bound {
			w.sending()
			w.mb.Send(p, 0)
		}
	case 8: // an empty mailbox parks the receiver until a sender hands it a message
		w.mb.Recv(p)
		w.woken(p)
	case 9:
		w.cores.Acquire(p)
		w.woken(p)
		if d := rng.Intn(4); d > 0 {
			w.timed(e.now+Time(d), func() { p.Sleep(time.Duration(d)) })
		}
		if len(w.cores.waiters) > 0 { // Release hands its unit to the head
			w.willWake(w.cores.waiters[0], 0)
		}
		w.cores.Release()
	case 10:
		w.event(Time(rng.Intn(4)))
	case 11:
		if w.spawns < 6 {
			w.spawns++
			w.spawn(fmt.Sprintf("child%d", w.spawns), 4+rng.Intn(8))
		}
	}
}

// readySet requires the current instant's pending events to be nowq alone,
// in seq order: the heap holds only later instants.
func (w *orderWorld) readySet(when string) {
	w.t.Helper()
	e := w.e
	for _, ev := range e.events {
		if ev.at <= e.now {
			w.t.Fatalf("%s: heap holds %v with the clock at %d", when, key{ev.at, ev.seq}, e.now)
		}
	}
	for i := e.nowHead; i < len(e.nowq); i++ {
		if ev := e.nowq[i]; ev.at != e.now || i > e.nowHead && ev.seq <= e.nowq[i-1].seq {
			w.t.Fatalf("%s: nowq[%d] is %v with the clock at %d", when, i, key{ev.at, ev.seq}, e.now)
		}
	}
}

// check requires the log to be strictly increasing in (at, seq) and the
// engine to hold exactly the events scheduled and not yet dispatched.
func (w *orderWorld) check(when string) {
	w.t.Helper()
	w.readySet(when)
	for i := 1; i < len(w.log); i++ {
		a, b := w.log[i-1], w.log[i]
		if b.at < a.at || b.at == a.at && b.seq <= a.seq {
			w.t.Fatalf("%s: dispatch %d ran %v after %v", when, i, b, a)
		}
	}
	if got, want := w.e.PendingEvents(), w.scheduled-len(w.log); got != want {
		w.t.Fatalf("%s: PendingEvents() = %d, want %d scheduled and not dispatched", when, got, want)
	}
	if w.e.seq != uint64(w.scheduled) {
		w.t.Fatalf("%s: engine consumed %d sequence numbers for %d schedulings", when, w.e.seq, w.scheduled)
	}
}

// Every dispatch happens in the (at, seq) order it was scheduled under,
// whichever of the heap, the same-instant queue or the in-place advance
// carried it, across RunUntil slices at arbitrary limits.
func TestDispatchOrderProperty(t *testing.T) {
	inPlace, queued := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		e := newTestEngine(t, seed)
		w := &orderWorld{
			t: t, e: e, rng: rand.New(rand.NewSource(seed)),
			gate: NewCond(e, "gate"), mb: NewMailbox[int](e, "mb", 2), cores: NewResource(e, "cores", 2),
		}
		// A ticker reschedules itself after fn returns, on the test it makes
		// below; fn schedules nothing, so the answer is the same here.
		var tick key
		fn := func(Time) {
			w.log = append(w.log, tick)
			if e.PendingEvents() > 0 {
				tick = w.next(e.now+7, 0)
			}
		}
		tick = w.next(e.now+7, 0)
		tickEvery(e, 7, fn)
		for i, n := 0, 4+w.rng.Intn(4); i < n; i++ {
			w.spawn(fmt.Sprintf("p%d", i), 10+w.rng.Intn(30))
		}
		for i := 0; i < 3; i++ {
			w.event(Time(w.rng.Intn(20)))
		}
		for i := 0; i < 6; i++ {
			limit := e.now + Time(w.rng.Intn(12)) - 1 // now-1 must do nothing
			before := e.now
			e.RunUntil(limit)
			if want := max(before, limit); e.now != want {
				t.Fatalf("seed %d: RunUntil(%d) from %d left the clock at %d", seed, limit, before, e.now)
			}
			w.check(fmt.Sprintf("seed %d slice %d", seed, i))
			w.event(Time(w.rng.Intn(3))) // scheduled from outside Run, sometimes for now
		}
		e.Run()
		w.check(fmt.Sprintf("seed %d drained", seed))
		if e.PendingEvents() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, e.PendingEvents())
		}
		inPlace += w.inPlace
		queued += cap(e.nowq)
		e.Shutdown()
	}
	if inPlace == 0 || queued == 0 {
		t.Fatalf("vacuous: %d in-place advances, same-instant queue capacity %d over all seeds", inPlace, queued)
	}
}

// A plain event scheduled before the sleeper's wake for the same instant has
// the smaller seq: the sleeper must park and let it fire first. One scheduled
// after the wake fires after it.
func TestSleepTieGoesToEarlierSeq(t *testing.T) {
	e := newTestEngine(t, 1)
	var got []string
	e.Schedule(5, func() { got = append(got, "early") })
	e.Go("sleeper", func(p *Proc) {
		parks := e.Parks
		p.Sleep(5)
		if e.Parks == parks {
			t.Error("Sleep tied with an earlier event advanced in place")
		}
		got = append(got, "sleeper")
		e.Schedule(7, func() { got = append(got, "late") })
		p.Sleep(2) // tied with "late", which is pending already: park again
		got = append(got, "sleeper2")
	})
	e.Run()
	if want := "early sleeper late sleeper2"; strings.Join(got, " ") != want {
		t.Fatalf("order %v, want %s", got, want)
	}
}

// A Sleep to exactly the run's limit is taken in place; one past it parks
// with its wake pending and leaves the clock for RunUntil to set.
func TestSleepAtAndPastLimit(t *testing.T) {
	e := newTestEngine(t, 1)
	var parksAtLimit, parksPast int64
	e.Go("sleeper", func(p *Proc) {
		parks := e.Parks
		p.Sleep(10)
		parksAtLimit = e.Parks - parks
		p.Sleep(1)
		parksPast = e.Parks - parks
	})
	e.RunUntil(10)
	if parksAtLimit != 0 || e.Parks != 1 {
		t.Fatalf("Sleep to the limit parked %d times, past it %d, want 0 and 1", parksAtLimit, e.Parks)
	}
	if e.Now() != 10 || e.PendingEvents() != 1 {
		t.Fatalf("after RunUntil(10): now %v, %d pending, want 10 and 1", e.Now(), e.PendingEvents())
	}
	e.Run()
	if e.Now() != 11 || parksPast != 1 || e.PendingEvents() != 0 {
		t.Fatalf("after Run: now %v, %d parks, %d pending", e.Now(), parksPast, e.PendingEvents())
	}
}

// With nothing pending for now, Yield has nobody to get behind: it returns at
// once and still consumes the sequence number its wake would have had.
func TestYieldAloneConsumesSeq(t *testing.T) {
	e := newTestEngine(t, 1)
	e.Go("lone", func(p *Proc) {
		seq, parks := e.seq, e.Parks
		p.Yield()
		if e.seq != seq+1 || e.Parks != parks {
			t.Errorf("lone Yield: seq %d -> %d, parks %d -> %d", seq, e.seq, parks, e.Parks)
		}
	})
	e.Run()
}

// A sleeper that is alone between ticks advances in place, but every tick is
// an event in its way: the ticker sees the sleeper's wake pending at each
// fire, and stops at the first fire after the work ends.
func TestTickerOverLoneSleeper(t *testing.T) {
	e := newTestEngine(t, 1)
	var fires []Time
	tickEvery(e, 100*Microsecond, func(now Time) { fires = append(fires, now) })
	e.Go("work", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(7 * Microsecond)
		}
	})
	e.Run()
	if want := []Time{100_000, 200_000, 300_000, 400_000}; !slices.Equal(fires, want) || e.PendingEvents() != 0 {
		t.Fatalf("ticker fired at %v (%d events left), want %v", fires, e.PendingEvents(), want)
	}
	if e.Now() != 400_000 || e.Parks >= 50 {
		t.Fatalf("now %v after %d parks: want 400µs and most of the 50 sleeps in place", e.Now(), e.Parks)
	}
}

// tickEvery runs fn every interval of virtual time from event context, first
// one interval from now, and stops at the first tick that finds no other
// event pending, so that Run still drains: the rule telemetry's sampler
// keeps.
func tickEvery(e *Engine, every time.Duration, fn func(now Time)) {
	var tick func()
	tick = func() {
		fn(e.Now())
		if e.PendingEvents() > 0 {
			e.After(every, tick)
		}
	}
	e.After(every, tick)
}

// A Sleep deferred by a body that Shutdown is killing must unwind like any
// park of a dead process, not run on in place and move the clock.
func TestDeferredSleepUnderShutdown(t *testing.T) {
	for _, fromEvent := range []bool{false, true} {
		e := newTestEngine(t, 1)
		never := NewCond(e, "never")
		var unwound any
		var at Time
		e.Go("victim", func(p *Proc) {
			defer func() {
				defer func() { unwound, at = recover(), e.Now(); panic(unwound) }()
				p.Sleep(5)
				t.Error("deferred Sleep returned in a killed process")
			}()
			never.Wait(p)
		})
		e.Run()
		if fromEvent { // inside a run whose limit the wake would meet
			e.Schedule(e.Now(), e.Shutdown)
			e.Run()
		} else {
			e.Shutdown()
		}
		if _, killed := unwound.(procKilled); !killed || at != 0 {
			t.Fatalf("fromEvent=%v: deferred Sleep unwound with %v at %v, want procKilled at 0", fromEvent, unwound, at)
		}
	}
}

// Only the running process may sleep: from event context, or on behalf of
// another process, Sleep still reaches park and its panic.
func TestSleepFromWrongContextPanics(t *testing.T) {
	e := newTestEngine(t, 1)
	idle := NewCond(e, "idle")
	other := e.Go("other", func(p *Proc) { idle.Wait(p) })
	mustPanic := func(who string, f func()) {
		defer func() {
			want := `sim: proc "other" parking while not running`
			if r := recover(); r != want {
				t.Errorf("%s: recovered %v, want %q", who, r, want)
			}
		}()
		f()
	}
	// Both wakes would be the next event: only the caller rules them out.
	e.Schedule(1, func() { mustPanic("event context", func() { other.Sleep(1) }) })
	e.Go("meddler", func(p *Proc) {
		p.Sleep(5)
		mustPanic("non-running process", func() { other.Sleep(1) })
	})
	e.Run()
}
