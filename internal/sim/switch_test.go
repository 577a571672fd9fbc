package sim

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
)

// step advances e by one microsecond of virtual time: in the tests below that
// is exactly one round of the script under measurement.
func step(e *Engine) { e.RunUntil(e.Now() + Time(Microsecond)) }

// Every way of parking and being woken must be allocation-free in steady
// state: the wake is a proc-carrying event in the heap or, for the current
// instant, in the same-instant queue, which drains and refills in place; the
// switch is a coroutine switch; and the waiter queues reuse their slots. A
// spawned process reuses a finished one, so it costs nothing either.
func TestSwitchPathsZeroAllocs(t *testing.T) {
	cases := []struct {
		name   string
		setup  func(e *Engine)
		allocs float64
	}{
		{name: "Sleep", setup: func(e *Engine) {
			e.Go("sleeper", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
				}
			})
		}},
		{name: "CondSignalWait", setup: func(e *Engine) {
			c := NewCond(e, "c")
			e.Go("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
			e.Go("signaller", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
					c.Signal()
				}
			})
		}},
		{name: "CondBroadcastWait", setup: func(e *Engine) { // Broadcast keeps the waiter queue's backing array
			c := NewCond(e, "c")
			for _, name := range []string{"w1", "w2", "w3"} {
				e.Go(name, func(p *Proc) {
					for {
						c.Wait(p)
					}
				})
			}
			e.Go("broadcaster", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
					c.Broadcast()
				}
			})
		}},
		{name: "ResourceReleaseAcquire", setup: func(e *Engine) {
			r := NewResource(e, "r", 1)
			for _, name := range []string{"a", "b"} {
				e.Go(name, func(p *Proc) {
					for {
						r.Acquire(p) // the other holds it: queue, granted by its Release
						p.Sleep(Microsecond)
						r.Release()
					}
				})
			}
		}},
		{name: "RWLockContended", setup: func(e *Engine) { // the waiter queue drains and refills in place
			var l RWLock
			for _, w := range []struct {
				name  string
				write bool
			}{{"w1", true}, {"r1", false}, {"r2", false}, {"w2", true}} {
				e.Go(w.name, func(p *Proc) {
					for {
						l.Lock(p, w.write)
						p.Sleep(Microsecond / 8)
						l.Unlock()
						p.Sleep(Microsecond / 8)
					}
				})
			}
		}},
		{name: "MailboxSendToParkedReceiver", setup: func(e *Engine) {
			mb := NewMailbox[int](e, "mb", 0)
			e.Go("receiver", func(p *Proc) {
				for {
					mb.Recv(p)
				}
			})
			e.Go("sender", func(p *Proc) {
				for i := 0; ; i++ {
					p.Sleep(Microsecond)
					mb.Send(p, i)
				}
			})
		}},
		{name: "YieldBehindQueuedWakes", setup: func(e *Engine) { // the queue refills while it drains
			c := NewCond(e, "c")
			for _, name := range []string{"w1", "w2"} {
				e.Go(name, func(p *Proc) {
					for {
						c.Wait(p)
						p.Yield()
					}
				})
			}
			e.Go("broadcaster", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
					c.Broadcast()
					p.Yield()
				}
			})
		}},
		{name: "GoShortBody", setup: func(e *Engine) {
			body := func(p *Proc) { p.Yield() }
			e.Go("spawner", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
					e.Go("short", body)
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, 1)
			tc.setup(e)
			for i := 0; i < 64; i++ { // warm up: heap, queues and free list reach their size
				step(e)
			}
			before, queue := e.Parks, cap(e.nowq)
			if a := testing.AllocsPerRun(200, func() { step(e) }); a != tc.allocs {
				t.Fatalf("%v allocs per round, want %v", a, tc.allocs)
			}
			if e.Parks == before {
				t.Fatal("script did not switch: the measurement is vacuous")
			}
			if len(e.nowq) != 0 || e.nowHead != 0 || cap(e.nowq) != queue {
				t.Fatalf("same-instant queue after a drained round: len %d head %d cap %d (was %d), want it rewound in place",
					len(e.nowq), e.nowHead, cap(e.nowq), queue)
			}
		})
	}
}

// A Cond carries room for one waiter, so the common one-shot condition (a
// command's completion, a fan-out's join) costs the Cond itself and nothing
// on its first Wait, whether it is woken by Signal or by Broadcast.
func TestFreshCondWaitZeroAllocs(t *testing.T) {
	e := newTestEngine(t, 1)
	var c *Cond
	e.Go("waiter", func(p *Proc) {
		for {
			c = NewCond(e, "one-shot")
			c.Wait(p)
		}
	})
	round := func() { e.Run(); c.Broadcast() }
	for i := 0; i < 8; i++ {
		round()
	}
	if a := testing.AllocsPerRun(200, round); a > 1 {
		t.Fatalf("fresh Cond, Wait, Broadcast: %v allocs, want 1 (the Cond)", a)
	}
}

// A finished body's process waits on the free list and the next Go reuses
// it, coroutine and all, so spawning a short process allocates nothing.
func TestGoReusesProc(t *testing.T) {
	e := newTestEngine(t, 1)
	ran := 0
	body := func(p *Proc) { p.Sleep(Microsecond); ran++ }
	first := e.Go("short", body)
	e.Run()
	spawn := func() {
		if p := e.Go("short", body); p != first {
			t.Fatal("Go made a new process with a free one waiting")
		}
		e.Run()
	}
	if a := testing.AllocsPerRun(200, spawn); a != 0 {
		t.Fatalf("Go of a short body: %v allocs, want 0", a)
	}
	if ran != 202 {
		t.Fatalf("ran %d bodies, want 202", ran)
	}
	if len(e.free) != 1 {
		t.Fatalf("%d free processes after sequential bodies, want 1", len(e.free))
	}
}

// A panic in a process body surfaces from Run, on the goroutine that called
// Run, carrying the original value; the engine stays usable for the others.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := newTestEngine(t, 1)
	boom := errors.New("boom")
	survived := false
	e.Go("bystander", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		survived = true
	})
	e.Go("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != boom {
		t.Fatalf("Run panicked with %v, want the body's own value %v", got, boom)
	}
	if e.Now() != Time(Microsecond) {
		t.Fatalf("panic surfaced at %v, want 1µs", e.Now())
	}
	e.Run()
	if !survived {
		t.Fatal("bystander did not finish after the panic was recovered")
	}
	e.Shutdown()
}

func TestShutdownOrderDefersAndGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	if base >= 20 {
		t.Fatalf("%d goroutines alive before the test: an earlier test left its processes running", base)
	}
	e := newTestEngine(t, 1)
	never := NewCond(e, "never")
	again := NewCond(e, "again")
	var order []string
	for i, name := range []string{"a", "b", "c"} {
		d := time.Duration(i+1) * Microsecond
		e.Go(name, func(p *Proc) {
			defer func() { order = append(order, name) }()
			p.Sleep(d)
			if name == "a" {
				again.Wait(p) // woken at 5µs: a re-parks last
			}
			never.Wait(p)
		})
	}
	for i := 0; i < 4; i++ { // bodies that return: their processes go free
		e.Go("short", func(p *Proc) { p.Sleep(4 * Microsecond) })
	}
	e.Schedule(Time(5*Microsecond), again.Signal)
	e.Run()
	if len(order) != 0 {
		t.Fatalf("defers ran before Shutdown: %v", order)
	}
	if len(e.free) != 4 || parkedProcs(e) != 3 {
		t.Fatalf("free = %d, parked = %d, want 4 and 3", len(e.free), parkedProcs(e))
	}
	if n := runtime.NumGoroutine(); n != base+7 {
		t.Fatalf("%d goroutines with 7 processes alive, started from %d", n, base)
	}
	e.Shutdown()
	if want := []string{"b", "c", "a"}; !slices.Equal(order, want) {
		t.Fatalf("kill order %v, want park order %v", order, want)
	}
	if len(e.free) != 0 || parkedProcs(e) != 0 {
		t.Fatalf("after Shutdown: free = %d, parked = %d", len(e.free), parkedProcs(e))
	}
	// A stopped coroutine's goroutine exits on its own schedule: poll.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedProcs counts e's parked processes.
func parkedProcs(e *Engine) int {
	n := 0
	for _, p := range e.procs {
		if p.state == procParked {
			n++
		}
	}
	return n
}

// A lone sleeper's wake-up is always the next event, so every Sleep is the
// in-place advance: no heap entry, no switch.
func BenchmarkSleepSwitch(b *testing.B) {
	e := newTestEngine(b, 1)
	b.ReportAllocs()
	e.Go("sleeper", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	e.Run()
}

// Two sleepers with the same period, half a period apart: each one's wake-up
// is always behind the other's, so every Sleep is the full round trip — heap
// push, park, pop, wake. One iteration is one such activation.
func BenchmarkSleepInterleaved(b *testing.B) {
	e := newTestEngine(b, 1)
	b.ReportAllocs()
	for i, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) {
			p.Sleep(time.Duration(1+i) * Microsecond)
			for n := i; n < b.N; n += 2 {
				p.Sleep(2 * Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	if e.Parks < int64(b.N) {
		b.Errorf("%d parks for %d sleeps: some advanced in place", e.Parks, b.N)
	}
}

func BenchmarkMailboxPingPong(b *testing.B) {
	e := newTestEngine(b, 1)
	ping := NewMailbox[int](e, "ping", 0)
	pong := NewMailbox[int](e, "pong", 0)
	b.ReportAllocs()
	e.Go("echo", func(p *Proc) {
		for {
			pong.Send(p, ping.Recv(p))
		}
	})
	e.Go("driver", func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	e.Run()
}

func BenchmarkGoShortProc(b *testing.B) {
	e := newTestEngine(b, 1)
	body := func(p *Proc) { p.Sleep(Microsecond) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Go("short", body)
		e.Run()
	}
}
