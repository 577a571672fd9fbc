package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// hold acquires a unit of r, keeps it for d and releases it.
func hold(p *Proc, r *Resource, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 2)
	var end Time
	e.Go("p", func(p *Proc) {
		hold(p, r, 100)
		end = p.Now()
	})
	e.Run()
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
	if r.free != 2 {
		t.Fatalf("%d of 2 units free after release", r.free)
	}
}

func TestResourceQueueing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) {
			hold(p, r, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	if len(ends) != 3 || ends[0] != 100 || ends[1] != 200 || ends[2] != 300 {
		t.Fatalf("ends = %v, want [100 200 300]", ends)
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 4)
	var ends []Time
	for i := 0; i < 8; i++ {
		e.Go("p", func(p *Proc) {
			hold(p, r, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// 8 jobs on 4 servers: two waves of 100ns.
	if e.Now() != 200 {
		t.Fatalf("makespan = %v, want 200", e.Now())
	}
}

func TestResourceReleasePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	r.Release()
}

// Property: for any set of jobs on a single-server resource, the makespan is
// the sum of the service times, and jobs complete in spawn order.
func TestResourceConservationProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine(7)
		r := NewResource(e, "r", 1)
		var total int64
		var ends []Time
		for _, d := range durs {
			d := int64(d) + 1
			total += d
			e.Go("j", func(p *Proc) {
				hold(p, r, Time(d).Sub(0))
				ends = append(ends, p.Now())
			})
		}
		e.Run()
		if int64(e.Now()) != total {
			return false
		}
		for i := 1; i < len(ends); i++ {
			if ends[i] < ends[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRWLockGrantOrder: who enters when. A release grants the lock to every
// waiter that can then enter, in arrival order, and skips the others without
// moving them; a reader enters whenever no writer holds the lock.
func TestRWLockGrantOrder(t *testing.T) {
	type arrival struct {
		name        string
		write       bool
		at, holdFor Time
	}
	cases := []struct {
		name     string
		arrivals []arrival
		want     []string // name@time, in the order the lock admitted them
	}{
		{"writer, then the readers queued behind it, then the next writer", []arrival{
			{"w0", true, 0, 100}, {"w1", true, 1, 100}, {"r1", false, 2, 100}, {"r2", false, 3, 100}, {"w2", true, 4, 100},
		}, []string{"w0@0", "w1@100", "r1@200", "r2@200", "w2@300"}},
		{"a reader passes a waiting writer", []arrival{
			{"r0", false, 0, 100}, {"w1", true, 1, 10}, {"r2", false, 2, 100},
		}, []string{"r0@0", "r2@2", "w1@102"}},
		{"a writer waits for the last reader", []arrival{
			{"r0", false, 0, 50}, {"r1", false, 0, 80}, {"w", true, 1, 10},
		}, []string{"r0@0", "r1@0", "w@80"}},
		{"queued readers enter together, past a queued writer", []arrival{
			{"w0", true, 0, 100}, {"r1", false, 1, 10}, {"w1", true, 2, 10}, {"r2", false, 3, 10},
		}, []string{"w0@0", "r1@100", "r2@100", "w1@110"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			defer e.Shutdown()
			var l RWLock
			var got []string
			for _, a := range tc.arrivals {
				e.Go(a.name, func(p *Proc) {
					p.SleepUntil(a.at)
					l.Lock(p, a.write)
					got = append(got, fmt.Sprintf("%s@%d", a.name, p.Now()))
					p.Sleep(time.Duration(a.holdFor))
					l.Unlock()
				})
			}
			e.Run()
			if !slices.Equal(got, tc.want) {
				t.Fatalf("entered %v, want %v", got, tc.want)
			}
			if l.holders != 0 || len(l.waiters) != 0 {
				t.Fatalf("at quiesce: %d holders, %d waiters", l.holders, len(l.waiters))
			}
		})
	}
}

// TestRWLockBlockedLockParksOnce: n writers queue on one lock; each blocked
// Lock parks once and is woken only by the release that grants it. The one
// other park is the first holder's Sleep, which the others' start events
// keep from advancing in place.
func TestRWLockBlockedLockParksOnce(t *testing.T) {
	const n = 16
	e := NewEngine(1)
	defer e.Shutdown()
	var l RWLock
	held := 0
	for i := 0; i < n; i++ {
		e.Go("w", func(p *Proc) {
			l.Lock(p, true)
			if held++; held != 1 {
				t.Errorf("%d writers inside the lock", held)
			}
			p.Sleep(10)
			held--
			l.Unlock()
		})
	}
	e.Run()
	if e.Now() != n*10 || e.Parks != n {
		t.Fatalf("clock %v after %d parks, want %d and %d", e.Now(), e.Parks, n*10, n)
	}
}

func TestRWLockUnlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unlock of an unlocked RWLock did not panic")
		}
	}()
	var l RWLock
	l.Unlock()
}
