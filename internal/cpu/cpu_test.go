package cpu

import (
	"testing"
	"time"

	"dpc/internal/sim"
)

func TestCyclesToDuration(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "host", 4, 2_000_000_000) // 2 GHz
	if d := c.CyclesToDuration(2000); d != time.Microsecond {
		t.Fatalf("2000 cycles @2GHz = %v, want 1µs", d)
	}
	if d := c.CyclesToDuration(1); d != 0 {
		// sub-ns truncates; acceptable at ns resolution
		t.Logf("1 cycle = %v", d)
	}
}

func TestExecSerializesOverCores(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", 2, 1_000_000_000)
	done := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *sim.Proc) {
			c.Exec(p, 1000) // 1µs each
			done++
		})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 jobs of 1µs on 2 cores: 2µs makespan.
	if e.Now() != sim.Time(2*sim.Microsecond) {
		t.Fatalf("makespan = %v, want 2µs", e.Now())
	}
}

func TestSwitchOverheadAppliesOnlyWhenContended(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", 1, 1_000_000_000)
	c.SwitchOverhead = 500 * sim.Nanosecond
	var first, second sim.Time
	e.Go("a", func(p *sim.Proc) {
		c.Exec(p, 1000)
		first = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		c.Exec(p, 1000)
		second = p.Now()
	})
	e.Run()
	if first != sim.Time(1*sim.Microsecond) {
		t.Fatalf("uncontended exec took %v, want 1µs", first)
	}
	// b queued behind a, so it pays the switch overhead.
	if second != sim.Time(2*sim.Microsecond+500) {
		t.Fatalf("contended exec finished at %v, want 2.5µs", second)
	}
}

func TestUsageWindow(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", 4, 1_000_000_000)
	// Two workers each busy 100% of a 1s window on 1 core.
	for i := 0; i < 2; i++ {
		e.Go("w", func(p *sim.Proc) {
			for j := 0; j < 1000; j++ {
				c.Exec(p, 1_000_000) // 1ms
			}
		})
	}
	c.Mark()
	e.Run()
	used := c.CoresUsed()
	if used < 1.99 || used > 2.01 {
		t.Fatalf("CoresUsed = %v, want 2.0", used)
	}
	if u := c.Usage(); u < 0.49 || u > 0.51 {
		t.Fatalf("Usage = %v, want 0.5", u)
	}
}

func TestUsageWindowPartial(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", 1, 1_000_000_000)
	e.Go("w", func(p *sim.Proc) {
		c.ExecDuration(p, 500*time.Millisecond)
		p.Sleep(500 * time.Millisecond) // idle half the time
	})
	c.Mark()
	e.Run()
	if u := c.Usage(); u < 0.49 || u > 0.51 {
		t.Fatalf("Usage = %v, want 0.5", u)
	}
}

// TestContendedAndInUse: a pool runs as many executions at once as it has
// cores. With one more than that, the extra one finds no core free at issue:
// it starts when the first ones end and pays the switch overhead, so cores+1
// executions of 1 µs take 2 µs plus one overhead. Work issued at the instant
// a core frees finds it free and pays nothing extra.
func TestContendedAndInUse(t *testing.T) {
	const cores, sw = 3, 300 * time.Nanosecond
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", cores, 1_000_000_000)
	c.SwitchOverhead = sw
	var ends []sim.Time
	for i := 0; i <= cores; i++ {
		e.Go("w", func(p *sim.Proc) {
			c.Exec(p, 1000)
			ends = append(ends, p.Now())
		})
	}
	var late sim.Time
	e.Go("late", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(sim.Microsecond))
		c.Exec(p, 1000)
		late = p.Now()
	})
	e.Run()
	for i, end := range ends[:cores] {
		if end != sim.Time(sim.Microsecond) {
			t.Fatalf("execution %d ends at %v, want 1µs: %d cores run at once", i, end, cores)
		}
	}
	if got, want := ends[cores], sim.Time(2*sim.Microsecond+sw); got != want {
		t.Fatalf("execution %d of %d cores ends at %v, want 2µs plus one switch overhead", cores+1, cores, got)
	}
	if late != sim.Time(2*sim.Microsecond) {
		t.Fatalf("execution issued as a core frees ends at %v, want 2µs", late)
	}
	if c.Name() != "cpu" || c.cores != cores {
		t.Fatal("accessors wrong")
	}
}

// TestExecParksOnce: with twice as many issuers as cores every execution
// after the first round queues for a core and pays the switch overhead, yet
// parks its process once.
func TestExecParksOnce(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", 4, 1_000_000_000)
	c.SwitchOverhead = 100 * time.Nanosecond
	const procs, execs = 8, 16
	for i := 0; i < procs; i++ {
		e.Go("w", func(p *sim.Proc) {
			for j := 0; j < execs; j++ {
				c.Exec(p, 1000)
			}
		})
	}
	e.Run()
	if e.Parks > procs*execs {
		t.Fatalf("%d parks for %d executions, want at most one each", e.Parks, procs*execs)
	}
}

// TestExecZeroAllocs: an execution, contended or not, allocates nothing.
func TestExecZeroAllocs(t *testing.T) {
	for _, procs := range []int{1, 8} {
		e := sim.NewEngine(1)
		c := NewPool(e, "cpu", 4, 1_000_000_000)
		c.SwitchOverhead = 100 * time.Nanosecond
		for i := 0; i < procs; i++ {
			e.Go("w", func(p *sim.Proc) {
				for {
					c.Exec(p, 1000)
				}
			})
		}
		step := func() { e.RunUntil(e.Now() + sim.Time(10*sim.Microsecond)) }
		for i := 0; i < 16; i++ {
			step()
		}
		if a := testing.AllocsPerRun(200, step); a != 0 {
			t.Fatalf("%d procs on 4 cores: %v allocs per round of executions, want 0", procs, a)
		}
		e.Shutdown()
	}
}

func TestBadPoolPanics(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad pool did not panic")
		}
	}()
	NewPool(e, "bad", 0, 1)
}
