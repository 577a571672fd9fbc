package pcie

import (
	"math/rand"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/mem"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// refLink is the link as a FIFO pool of DMA engines and a one-unit FIFO
// pipe, each DMA taking an engine, sleeping its setup, taking the pipe and
// sleeping its payload: the reference model whose every end instant and
// profiled interval the computed free times must reproduce.
type refLink struct {
	*Link
	engines, pipe *sim.Resource
}

func newRefLink(e *sim.Engine, cfg Config, o *obs.Obs) *refLink {
	r := &refLink{
		Link:    NewLink(e, cfg),
		engines: sim.NewResource(e, "pcie-dma-engines", cfg.Engines),
		pipe:    sim.NewResource(e, "pcie-pipe", 1),
	}
	if o != nil {
		r.AttachObs(o)
		r.engines.OnWait = func(p *sim.Proc, since sim.Time) {
			o.Attr(p, obs.CompWait, "pcie.engine", since, e.Now())
		}
		r.pipe.OnWait = func(p *sim.Proc, since sim.Time) {
			o.Attr(p, obs.CompWait, "pcie.arb", since, e.Now())
		}
	}
	return r
}

func (r *refLink) dma(p *sim.Proc, n int, stall time.Duration, label string) {
	r.engines.Acquire(p, 1)
	if stall > 0 {
		r.o.Sleep(p, stall, obs.CompWait, "pcie.stall")
	}
	r.o.Sleep(p, r.cfg.DMASetup, obs.CompDMA, label)
	r.pipe.Acquire(p, 1)
	r.o.Sleep(p, r.payloadTime(n), obs.CompDMA, label)
	r.pipe.Release(1)
	r.engines.Release(1)
}

// dmaScript is one random schedule: the issue instant and size of each DMA,
// every one issued by a process of its own. A process that issued a DMA
// before would wake from it at an instant other events may share, and which
// of them goes first is the tie order the clocks change; here issues that
// share an instant go in the order their processes were started.
type dmaScript struct {
	at    []sim.Time
	sizes []int
}

func randomDMAScript(rng *rand.Rand) dmaScript {
	var s dmaScript
	for i, n := 0, 1+rng.Intn(200); i < n; i++ {
		s.at = append(s.at, sim.Time(rng.Intn(40)*250)) // few distinct instants: same-instant issues
		s.sizes = append(s.sizes, []int{0, 64, 512, 4096, 8192, 65536}[rng.Intn(6)]+rng.Intn(64))
	}
	return s
}

// run plays the script with the resource model (ref) or the link and
// returns every DMA's end instant and the profiled time per interval kind.
func (s dmaScript) run(ref bool) ([]sim.Time, map[string]sim.Time) {
	e := sim.NewEngine(1)
	o := obs.New()
	cfg := testLink(e).Config()
	host := mem.NewRegion("host", 0, 1<<17)
	var dma func(p *sim.Proc, n int)
	if ref {
		r := newRefLink(e, cfg, o)
		dma = func(p *sim.Proc, n int) { r.dma(p, n, 0, "dma") }
	} else {
		l := NewLink(e, cfg)
		l.AttachObs(o)
		dma = func(p *sim.Proc, n int) { l.DMAReadView(p, host, 0, n, "dma") }
	}
	ends := make([]sim.Time, len(s.at))
	for i := range s.at {
		e.Go("dev", func(p *sim.Proc) {
			p.SleepUntil(s.at[i])
			span := o.Begin(p, "op")
			dma(p, s.sizes[i])
			ends[i] = p.Now()
			span.End(p)
		})
	}
	e.Run()
	kinds := map[string]sim.Time{}
	for _, sd := range o.Tracer().Export(e.Now()) {
		for _, iv := range sd.Intervals {
			kinds[iv.Kind] += iv.End - iv.Start
		}
	}
	return ends, kinds
}

// TestDMAClockMatchesResources drives the computed free times and the
// resource model with the same random schedules: every DMA ends at the same
// instant, and attribution gives the same time to engine waits, pipe
// arbitration and transfer.
func TestDMAClockMatchesResources(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for sched := 0; sched < 200; sched++ {
		s := randomDMAScript(rng)
		wantEnds, wantKinds := s.run(true)
		gotEnds, gotKinds := s.run(false)
		for i, want := range wantEnds {
			if got := gotEnds[i]; got != want {
				t.Fatalf("schedule %d: DMA %d (issued at %v, %d B) ends at %v, resource model %v",
					sched, i, s.at[i], s.sizes[i], got, want)
			}
		}
		for _, kind := range []string{"pcie.engine", "pcie.arb", "dma"} {
			if gotKinds[kind] != wantKinds[kind] {
				t.Fatalf("schedule %d: profiled %s = %v, resource model %v", sched, kind, gotKinds[kind], wantKinds[kind])
			}
		}
		if len(gotKinds) != len(wantKinds) {
			t.Fatalf("schedule %d: profiled kinds %v, resource model %v", sched, gotKinds, wantKinds)
		}
	}
}

// TestStalledDMAKeepsItsPipeSlot pins the one place the clocks differ from
// the resource model: a stalled DMA books the pipe at issue, so a DMA issued
// just after it serializes behind it, where the resource model let the
// later DMA reach the pipe first while the stalled one waited out its stall.
func TestStalledDMAKeepsItsPipeSlot(t *testing.T) {
	const stall = 5 * time.Microsecond
	run := func(ref bool) (a, b sim.Time) {
		e := sim.NewEngine(1)
		cfg := testLink(e).Config()
		host := mem.NewRegion("host", 0, 1<<14)
		var dma func(p *sim.Proc, stalled bool)
		if ref {
			r := newRefLink(e, cfg, nil)
			dma = func(p *sim.Proc, stalled bool) {
				d := time.Duration(0)
				if stalled {
					d = stall
				}
				r.dma(p, 8000, d, "x")
			}
		} else {
			l := NewLink(e, cfg)
			l.SetFaults(fault.New(e, []fault.Rule{{Site: fault.SitePCIeDMA, Kind: fault.KindPCIeStall, Count: 1, Delay: stall}}))
			dma = func(p *sim.Proc, _ bool) { l.DMAReadView(p, host, 0, 8000, "x") }
		}
		e.Go("stalled", func(p *sim.Proc) { dma(p, true); a = p.Now() })
		e.Go("next", func(p *sim.Proc) { p.Sleep(time.Nanosecond); dma(p, false); b = p.Now() })
		e.Run()
		return a, b
	}
	// 8000 B at 8 GB/s is 1 µs of payload; the setup is 600 ns.
	if a, b := run(false); a != 6600 || b != 7600 {
		t.Fatalf("clocks: stalled DMA ends %v, next %v; want 6.6µs, then 7.6µs behind it", a, b)
	}
	if a, b := run(true); a != 6600 || b != 1601 {
		t.Fatalf("resource model: stalled DMA ends %v, next %v; want 6.6µs, next first at 1.601µs", a, b)
	}
}

// TestDMAParksOncePerTransfer: with twice as many issuers as engines, every
// DMA queues for an engine and the pipe, yet parks its issuer at most once.
func TestDMAParksOncePerTransfer(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, DefaultConfig())
	host := mem.NewRegion("host", 0, 1<<14)
	for i := 0; i < 32; i++ {
		e.Go("dev", func(p *sim.Proc) {
			for j := 0; j < 8; j++ {
				l.DMAReadView(p, host, 0, 4096, "x")
			}
		})
	}
	e.Run()
	if l.DMAs.Total() != 256 || e.Parks > l.DMAs.Total() {
		t.Fatalf("%d parks for %d DMAs, want at most one each", e.Parks, l.DMAs.Total())
	}
}

// TestDMAZeroAllocs: an untraced DMA, contended or not, allocates nothing.
func TestDMAZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	l := testLink(e)
	host := mem.NewRegion("host", 0, 1<<14)
	buf := make([]byte, 4096)
	for i := 0; i < 8; i++ { // more issuers than engines
		e.Go("dev", func(p *sim.Proc) {
			for {
				l.DMAReadInto(p, buf, host, 0, "r")
				l.DMAWrite(p, host, 4096, buf, "w")
			}
		})
	}
	step := func() { e.RunUntil(e.Now() + sim.Time(sim.Microsecond)) }
	for i := 0; i < 64; i++ {
		step()
	}
	before := l.DMAs.Total()
	if a := testing.AllocsPerRun(200, step); a != 0 {
		t.Fatalf("%v allocs per round of DMAs, want 0", a)
	}
	if l.DMAs.Total() == before {
		t.Fatal("no DMA completed: the measurement is vacuous")
	}
}
