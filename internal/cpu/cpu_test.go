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

func TestContendedAndInUse(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewPool(e, "cpu", 1, 1_000_000_000)
	// More runnable work than cores.
	contended := func() bool { return c.res.InUse() >= c.cores && c.res.QueueLen() > 0 }
	if contended() || c.InUse() != 0 {
		t.Fatal("fresh pool reports contention")
	}
	var sawContended, sawInUse bool
	e.Go("a", func(p *sim.Proc) { c.Exec(p, 10_000) })
	e.Go("b", func(p *sim.Proc) {
		p.Sleep(1_000)
		// While a holds the core and b queues, the pool is contended.
		sawInUse = c.InUse() == 1
		c.Exec(p, 1_000)
	})
	e.Go("probe", func(p *sim.Proc) {
		p.Sleep(2_000)
		sawContended = contended()
	})
	e.Run()
	if !sawInUse {
		t.Fatal("InUse never observed")
	}
	if !sawContended {
		t.Fatal("Contended never observed")
	}
	if c.Name() != "cpu" || c.cores != 1 {
		t.Fatal("accessors wrong")
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
