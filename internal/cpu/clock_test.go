package cpu

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// refPool is the pool as a FIFO resource of cores: an execution counts as
// contended when every core is held or queued for at issue, acquires a core,
// sleeps its work and releases the core. It is the reference model whose
// every end instant, busy time and profiled interval the clock must
// reproduce. It records its own run-queue waits and its holds.
type refPool struct {
	*Pool
	cores   *sim.Resource
	pending int        // executions issued and not yet ended
	holds   [][2]int64 // every [start, end) a core was held
}

func newRefPool(e *sim.Engine, cores int, sw time.Duration, o *obs.Obs) *refPool {
	r := &refPool{Pool: NewPool(e, "cpu", cores, 1_000_000_000), cores: sim.NewResource(e, "cores", cores)}
	r.SwitchOverhead = sw
	r.AttachObs(o)
	return r
}

func (r *refPool) exec(p *sim.Proc, d time.Duration) {
	contended := r.pending >= r.Pool.cores
	r.pending++
	since := p.Now()
	r.cores.Acquire(p)
	r.o.Attr(p, obs.CompWait, r.waitKind, since, p.Now())
	if contended {
		d += r.SwitchOverhead
	}
	start := p.Now()
	r.o.Sleep(p, d, obs.CompCPU, r.execKind)
	r.holds = append(r.holds, [2]int64{int64(start), int64(p.Now())})
	r.cores.Release()
	r.pending--
}

// busy returns the core-nanoseconds the holds spent inside [from, to).
func (r *refPool) busy(from, to sim.Time) int64 {
	var b int64
	for _, h := range r.holds {
		if lo, hi := max(h[0], int64(from)), min(h[1], int64(to)); hi > lo {
			b += hi - lo
		}
	}
	return b
}

// execScript is one random schedule: the issue instant and work of each
// execution, every one issued by a process of its own, and disjoint
// measurement windows (the pool has one mark). Issues fall on whole
// microseconds and every work is a whole number of microseconds plus 1 ns
// (the switch overhead a whole number), so no execution ends at an instant
// another is issued at while fewer than 1000 run back to back on one core:
// which of an end and an issue at one instant goes first is the tie order
// the clock changes (the resource model calls such an issue contended, the
// clock finds the core free).
type execScript struct {
	cores   int
	sw      time.Duration
	at      []sim.Time
	work    []time.Duration
	windows [][2]sim.Time
}

func randomExecScript(rng *rand.Rand) execScript {
	s := execScript{cores: 1 + rng.Intn(6), sw: time.Duration(rng.Intn(3)) * time.Microsecond}
	for i, n := 0, 1+rng.Intn(200); i < n; i++ {
		s.at = append(s.at, sim.Time(rng.Intn(40))*sim.Time(sim.Microsecond))
		s.work = append(s.work, time.Duration(rng.Intn(8))*time.Microsecond+1)
	}
	var marks []sim.Time
	for i := 0; i < 8; i++ {
		marks = append(marks, sim.Time(rng.Intn(300_000)))
	}
	slices.Sort(marks)
	for i := 0; i < len(marks); i += 2 {
		s.windows = append(s.windows, [2]sim.Time{marks[i], marks[i+1] + 1})
	}
	return s
}

// run plays the script with the resource model (ref) or the pool and returns
// every execution's end instant, the cores used over each window, and the
// profiled time per interval kind.
func (s execScript) run(ref bool) ([]sim.Time, []float64, map[string]sim.Time) {
	e := sim.NewEngine(1)
	o := obs.New()
	var exec func(p *sim.Proc, d time.Duration)
	var rp *refPool
	var pool *Pool
	if ref {
		rp = newRefPool(e, s.cores, s.sw, o)
		exec = rp.exec
	} else {
		pool = NewPool(e, "cpu", s.cores, 1_000_000_000)
		pool.SwitchOverhead = s.sw
		pool.AttachObs(o)
		exec = pool.ExecDuration
	}
	ends := make([]sim.Time, len(s.at))
	for i := range s.at {
		e.Go("w", func(p *sim.Proc) {
			p.SleepUntil(s.at[i])
			span := o.Begin(p, "op")
			exec(p, s.work[i])
			ends[i] = p.Now()
			span.End(p)
		})
	}
	used := make([]float64, len(s.windows))
	if !ref {
		e.Go("probe", func(p *sim.Proc) {
			for i, w := range s.windows {
				p.SleepUntil(w[0])
				pool.Mark()
				p.SleepUntil(w[1])
				used[i] = pool.CoresUsed()
			}
		})
	}
	e.Run()
	if ref {
		for i, w := range s.windows {
			used[i] = float64(rp.busy(w[0], w[1])) / float64(w[1]-w[0])
		}
	}
	kinds := map[string]sim.Time{}
	for _, sd := range o.Tracer().Export(e.Now()) {
		for _, iv := range sd.Intervals {
			kinds[iv.Kind] += iv.End - iv.Start
		}
	}
	return ends, used, kinds
}

// TestCPUClockMatchesResources drives the clock and the resource model with
// the same random schedules: every execution ends at the same instant, the
// pool reports the same cores used over every window, and attribution gives
// the same time to run-queue waits and execution.
func TestCPUClockMatchesResources(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for sched := 0; sched < 200; sched++ {
		s := randomExecScript(rng)
		wantEnds, wantUsed, wantKinds := s.run(true)
		gotEnds, gotUsed, gotKinds := s.run(false)
		for i, want := range wantEnds {
			if got := gotEnds[i]; got != want {
				t.Fatalf("schedule %d: execution %d (issued at %v, %v of work on %d cores) ends at %v, resource model %v",
					sched, i, s.at[i], s.work[i], s.cores, got, want)
			}
		}
		for i, want := range wantUsed {
			if got := gotUsed[i]; math.Abs(got-want) > 1e-9*max(1, want) {
				t.Fatalf("schedule %d: cores used over %v = %v, resource model %v", sched, s.windows[i], got, want)
			}
		}
		for _, kind := range []string{"cpu.cpu.runq", "cpu.cpu"} {
			if gotKinds[kind] != wantKinds[kind] {
				t.Fatalf("schedule %d: profiled %s = %v, resource model %v", sched, kind, gotKinds[kind], wantKinds[kind])
			}
		}
		if len(gotKinds) != len(wantKinds) {
			t.Fatalf("schedule %d: profiled kinds %v, resource model %v", sched, gotKinds, wantKinds)
		}
	}
}

// TestBookAndDoneMatchExec: executions booked from event context with Book
// and counted at their end with Done end when ExecDuration's do, with the
// same busy time and execution count, and nothing is counted before an
// execution ends.
func TestBookAndDoneMatchExec(t *testing.T) {
	works := []time.Duration{500, 1500, 700, 0, 2500, 900, 1200}
	type result struct {
		ends        []sim.Time
		execs, busy int64
	}
	run := func(events bool) result {
		e := sim.NewEngine(1)
		defer e.Shutdown()
		o := obs.New()
		c := NewPool(e, "dpu", 2, 1_000_000_000)
		c.SwitchOverhead = 100
		c.AttachObs(o)
		var res result
		for i, d := range works {
			issue := sim.Time(i * 200)
			if events {
				e.Schedule(issue, func() {
					start, end := c.Book(d)
					e.At(end-1, func() {
						if n := c.execs.Total(); n != int64(len(res.ends)) {
							t.Errorf("exec %d: %d counted, %d ended", i, n, len(res.ends))
						}
					})
					e.At(end, func() {
						c.Done(obs.Span{}, issue, start, end)
						res.ends = append(res.ends, e.Now())
					})
				})
				continue
			}
			e.Go("exec", func(p *sim.Proc) {
				p.SleepUntil(issue)
				c.ExecDuration(p, d)
				res.ends = append(res.ends, e.Now())
			})
		}
		e.Run()
		res.execs, res.busy = c.execs.Total(), c.busyNs.Total()
		return res
	}
	blocking, events := run(false), run(true)
	if !slices.Equal(blocking.ends, events.ends) || blocking.execs != events.execs || blocking.busy != events.busy {
		t.Fatalf("blocking %+v, events %+v", blocking, events)
	}
}
