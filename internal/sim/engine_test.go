package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestAfter(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(1000, func() {
		e.After(5*Microsecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 1000+5000 {
		t.Fatalf("After fired at %d, want 6000", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(100, func() { fired++ })
	e.Schedule(200, func() { fired++ })
	e.Schedule(300, func() { fired++ })
	e.RunUntil(200)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("Now = %v, want 200", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(12345)
	if e.Now() != 12345 {
		t.Fatalf("Now = %v, want 12345", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wakeTimes []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		wakeTimes = append(wakeTimes, p.Now())
		p.Sleep(5 * Microsecond)
		wakeTimes = append(wakeTimes, p.Now())
	})
	e.Run()
	if len(wakeTimes) != 2 || wakeTimes[0] != 10000 || wakeTimes[1] != 15000 {
		t.Fatalf("wakeTimes = %v", wakeTimes)
	}
}

func TestProcZeroSleepNoOp(t *testing.T) {
	e := NewEngine(1)
	done := false
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("process did not complete")
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
		p.Sleep(20)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Go("p", func(p *Proc) {
		p.SleepUntil(500)
		p.SleepUntil(100) // already past: no-op
		at = p.Now()
	})
	e.Run()
	if at != 500 {
		t.Fatalf("at = %v, want 500", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var times []Time
		for i := 0; i < 5; i++ {
			e.Go("w", func(p *Proc) {
				for j := 0; j < 3; j++ {
					d := time.Duration(e.Rand().Intn(100)+1) * Microsecond
					p.Sleep(d)
					times = append(times, p.Now())
				}
			})
		}
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestShutdownRunsDefers(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	c := NewCond(e, "never")
	e.Go("waiter", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p) // never signalled
	})
	e.Run()
	if cleaned {
		t.Fatal("defer ran before shutdown")
	}
	e.Shutdown()
	if !cleaned {
		t.Fatal("defer did not run on shutdown")
	}
}

// Yield reschedules the process at the current time behind already-pending
// same-time events, giving them a chance to run. No model yields; the tests
// use it to put a wake behind the events of its instant.
func (p *Proc) Yield() { p.wakeAt(p.eng.now) }

func TestYield(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Yield()
		trace = append(trace, "a1")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
	})
	e.Run()
	// a yields, letting b's start event (scheduled after a's) run first.
	want := []string{"a0", "b0", "a1"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}
