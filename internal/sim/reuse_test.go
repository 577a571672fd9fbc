package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// checkWakes fails t unless every pending wake-up targets a starting or
// parked process and no process has two: a wake left for a process that
// has run on would resume whatever body reuses it next.
func checkWakes(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	pending := map[*Proc]int{}
	for _, q := range [][]event{e.events, e.nowq[e.nowHead:]} {
		for _, ev := range q {
			w, ok := ev.s.(*wakeStep)
			if !ok {
				continue
			}
			p := (*Proc)(w)
			if pending[p]++; pending[p] > 1 {
				t.Fatalf("seed %d: two wakes pending for %q", seed, p.name)
			}
			if st := p.state; st != procStarting && st != procParked {
				t.Fatalf("seed %d: wake pending for %q in state %d", seed, p.name, st)
			}
		}
	}
}

// Random programs of Go, Fork, Sleep and Cond Wait/Signal/Broadcast, from
// processes and plain events: before and after every step, every pending
// wake targets a starting or parked process. Processes are reused all the
// while, so a wake that outlived its body would be caught here, or by
// wake's own panic.
func TestWakesTargetParkedOrStartingProperty(t *testing.T) {
	reused := 0
	for seed := int64(0); seed < 300; seed++ {
		e := newTestEngine(t, seed)
		rng := rand.New(rand.NewSource(seed))
		conds := []*Cond{NewCond(e, "c0"), NewCond(e, "c1")}
		seen := map[*Proc]bool{}
		budget := 120
		var body func(p *Proc)
		spawn := func(name string) {
			p := e.Go(name, body)
			if seen[p] {
				reused++
			}
			seen[p] = true
		}
		body = func(p *Proc) {
			for steps := rng.Intn(6); steps > 0 && budget > 0; steps-- {
				budget--
				checkWakes(t, e, seed)
				switch rng.Intn(6) {
				case 0:
					p.Sleep(time.Duration(rng.Intn(3)) * Microsecond)
				case 1:
					conds[rng.Intn(2)].Wait(p)
				case 2:
					conds[rng.Intn(2)].Signal()
				case 3:
					conds[rng.Intn(2)].Broadcast()
				case 4:
					spawn("child")
				case 5:
					p.Fork("fork", rng.Intn(4), func(c *Proc, i int) { body(c) })
				}
				checkWakes(t, e, seed)
			}
		}
		for range 3 {
			spawn("root")
		}
		for range 6 {
			e.Schedule(Time(rng.Intn(8))*Time(Microsecond), func() {
				checkWakes(t, e, seed)
				conds[rng.Intn(2)].Broadcast()
				checkWakes(t, e, seed)
			})
		}
		e.Run()
		checkWakes(t, e, seed)
		e.Shutdown()
	}
	if reused == 0 {
		t.Fatal("no Go reused a process: the property is vacuous")
	}
}

// A wake left pending for a process whose body has returned is a fault, and
// wake panics on it instead of resuming the next body to reuse the process.
func TestWakeOfFreeProcPanics(t *testing.T) {
	e := newTestEngine(t, 1)
	e.Go("short", func(p *Proc) { e.scheduleWake(p, e.now+1) })
	defer func() {
		if r, want := recover(), `sim: waking proc "short" that is not parked`; r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	e.Run()
}

// A killed process is dead for good: Shutdown never puts it on the free
// list, where the next Go would hand out its finished coroutine.
func TestKilledProcNeverFree(t *testing.T) {
	e := newTestEngine(t, 1)
	never := NewCond(e, "never")
	a := e.Go("a", func(p *Proc) { never.Wait(p) })
	var freeWhileKilling []*Proc
	e.Go("b", func(p *Proc) {
		defer func() { freeWhileKilling = slices.Clone(e.free) }() // b is killed after a
		p.Sleep(Microsecond)
		never.Wait(p)
	})
	e.Go("short", func(p *Proc) {})
	e.Run()
	e.Shutdown()
	if len(freeWhileKilling) != 1 || slices.Contains(freeWhileKilling, a) {
		t.Fatalf("free list while Shutdown killed b: %d processes, a among them: %v; want only the finished one",
			len(freeWhileKilling), slices.Contains(freeWhileKilling, a))
	}
	if a.state != procDead {
		t.Fatalf("killed process in state %d, want dead", a.state)
	}
	ran := false
	if p := e.Go("after", func(p *Proc) { ran = true }); p == a {
		t.Fatal("Go after Shutdown reused a killed process")
	}
	e.Run()
	if !ran {
		t.Fatal("a process spawned after Shutdown did not run")
	}
}

// A body that panicked leaves its process dead: the next Go makes another.
func TestPanickedProcNotReused(t *testing.T) {
	e := newTestEngine(t, 1)
	bad := e.Go("bad", func(p *Proc) { panic("boom") })
	func() {
		defer func() { recover() }()
		e.Run()
	}()
	ran := false
	if p := e.Go("next", func(p *Proc) { ran = true }); p == bad {
		t.Fatal("Go reused the process whose body panicked")
	}
	e.Run()
	if !ran {
		t.Fatal("the next process did not run")
	}
}

// A reused process whose start is still pending at Shutdown gives its
// coroutine back, and starts on a new one if the engine runs again, as a
// process never run before would.
func TestShutdownReleasesPendingStart(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newTestEngine(t, 1)
	first := e.Go("short", func(p *Proc) {})
	e.Run()
	ran := false
	if p := e.Go("again", func(p *Proc) { ran = true }); p != first {
		t.Fatal("Go did not reuse the free process")
	}
	e.Shutdown()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown with a start pending, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	e.Run()
	if !ran {
		t.Fatal("the start pending at Shutdown did not run on the next Run")
	}
}
