package sim

import (
	"fmt"
	"slices"
	"testing"
)

// stepFunc is a func as a Stepper, for ScheduleStep.
type stepFunc func()

func (f stepFunc) Step() { f() }

// TestResumeAtMatchesWakeThenSleep: a process whose timed steps run as
// events in its place dispatches at the same (at, seq) points as the same
// process sleeping through them, while other processes sleep around it.
// The subject sleeps until a step, runs it, and sleeps again; its chained
// form parks once, and the step's event resumes it with Cond.ResumeAt where
// the second sleep ends: at once, in the event's place, for a zero sleep.
// (Every first sleep is positive: a zero one takes no sequence number,
// where the step's event would.)
// The waiter is woken by a ticking event each round; its chained form
// leaves its wake-up to an event that books the work the waiter would do on
// waking (ScheduleStep) and resumes it where that work ends.
func TestResumeAtMatchesWakeThenSleep(t *testing.T) {
	steps := []Time{3, 0, 4, 4, 1, 0, 2, 7, 6, 0, 5, 30}
	work := []Time{2, 0, 5, 1, 0, 3, 0, 4}
	run := func(chained bool) []string {
		e := newTestEngine(t, 1)
		var log []string
		note := func(who string) { log = append(log, fmt.Sprintf("%s@%d#%d", who, e.now, e.seq)) }
		for _, period := range []Time{2, 5} {
			e.Go("other", func(p *Proc) {
				for range 10 {
					note(fmt.Sprint("other", period))
					p.SleepUntil(p.Now() + period)
				}
			})
		}
		subject := NewCond(e, "subject")
		e.Go("subject", func(p *Proc) {
			for i := 0; i+1 < len(steps); i += 2 {
				note("subject")
				if !chained {
					p.SleepUntil(p.Now() + steps[i])
					note("step")
					p.SleepUntil(p.Now() + steps[i+1])
					continue
				}
				e.ScheduleStep(p.Now()+steps[i], stepFunc(func() {
					note("step")
					subject.ResumeAt(e.now + steps[i+1])
				}))
				subject.Wait(p)
			}
			note("subject")
		})
		woken := NewCond(e, "waiter")
		e.Go("waiter", func(p *Proc) {
			for k := range work {
				woken.Wait(p)
				if !chained {
					note("wake")
					p.SleepUntil(p.Now() + work[k])
				}
				note("waiter")
			}
		})
		k := 0
		var tick func()
		tick = func() {
			if chained {
				w := work[k]
				e.ScheduleStep(e.now, stepFunc(func() {
					note("wake")
					woken.ResumeAt(e.now + w)
				}))
			} else {
				woken.Signal()
			}
			if k++; k < len(work) {
				e.At(e.now+8, tick)
			}
		}
		e.Schedule(1, tick)
		e.Run()
		return log
	}
	plain, chained := run(false), run(true)
	if !slices.Equal(plain, chained) {
		t.Fatalf("dispatch logs differ:\nplain   %v\nchained %v", plain, chained)
	}
	if n := len(plain); n != 20+len(steps)/2*2+1+2*len(work) {
		t.Fatalf("%d log entries", n)
	}
}

// TestResumeAtPanics: resuming in place from a running process would run
// two processes at once, and a Cond with no waiter has nobody to resume.
func TestResumeAtPanics(t *testing.T) {
	e := newTestEngine(t, 1)
	c := NewCond(e, "c")
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("ResumeAt with no waiter", func() { c.ResumeAt(0) })
	e.Go("waiter", func(p *Proc) { c.Wait(p) })
	e.Run()
	var panicked bool
	e.Go("other", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		c.ResumeAt(p.Now())
	})
	e.Run()
	if !panicked {
		t.Error("ResumeAt in place from a running process did not panic")
	}
}
