package sim

import (
	"fmt"
	"time"
)

// Ticker fires a callback every fixed interval of virtual time, from event
// context (no process is running while the callback executes, so it may
// inspect any simulation state without synchronization but must not block).
//
// A ticker is idle-stopping: when, at fire time, the only events left in the
// engine are other tickers' wake-ups, it does not reschedule itself. Plain
// Run() therefore still terminates on an otherwise-drained simulation — the
// telemetry sampler ticks for exactly as long as there is live work, and the
// last tick lands on the final busy instant's interval boundary. RunUntil
// bounds it like any other event source.
//
// The tick closure is allocated once at NewTicker; each rescheduling pushes
// a plain heap event, so a steady-state tick allocates nothing.
type Ticker struct {
	e       *Engine
	every   Time
	fn      func(now Time)
	tick    func()
	stopped bool
}

// NewTicker schedules fn to run every interval of virtual time, first firing
// one interval from now. The interval must be positive.
func (e *Engine) NewTicker(every time.Duration, fn func(now Time)) *Ticker {
	if every <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", every))
	}
	t := &Ticker{e: e, every: Time(every), fn: fn}
	t.tick = func() {
		e.tickerPending--
		if t.stopped {
			return
		}
		t.fn(e.now)
		// Reschedule only while non-ticker work remains: if every pending
		// event is another ticker's wake-up, the simulation has quiesced and
		// rescheduling would keep Run alive forever.
		if e.PendingEvents() > e.tickerPending && !t.stopped {
			t.schedule()
		} else {
			t.stopped = true
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.e.tickerPending++
	t.e.Schedule(t.e.now+t.every, t.tick)
}

// Stop cancels the ticker. The already-scheduled wake-up still pops from the
// event heap but does nothing.
func (t *Ticker) Stop() { t.stopped = true }
