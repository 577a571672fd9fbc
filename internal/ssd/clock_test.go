package ssd

import (
	"math/rand"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// refDevice is the device as a FIFO resource of channels and two one-unit
// FIFO buses: an I/O takes a channel, sleeps its media latency, takes its
// bus, sleeps its payload and releases both; a barrier takes a channel for
// its latency. It is the reference model whose every end instant and
// profiled interval the clocks must reproduce, and it records its own waits.
type refDevice struct {
	*Device
	channels, readBus, writeBus *sim.Resource
}

func newRefDevice(e *sim.Engine, cfg Config, o *obs.Obs) *refDevice {
	r := &refDevice{
		Device:   New(e, cfg),
		channels: sim.NewResource(e, "ssd-channels", cfg.Channels),
		readBus:  sim.NewResource(e, "ssd-read-bus", 1),
		writeBus: sim.NewResource(e, "ssd-write-bus", 1),
	}
	r.AttachObs(o)
	return r
}

// acquire takes one unit of res for p and attributes its wait to kind.
func (r *refDevice) acquire(p *sim.Proc, res *sim.Resource, kind string) {
	since := p.Now()
	res.Acquire(p)
	r.o.Attr(p, obs.CompWait, kind, since, p.Now())
}

func (r *refDevice) io(p *sim.Proc, op ssdOp) {
	s := r.o.Begin(p, "op")
	r.acquire(p, r.channels, "ssd.queue")
	switch op.kind {
	case "ssd.barrier":
		r.o.Sleep(p, r.cfg.BarrierLatency, obs.CompSSD, op.kind)
	case "ssd.read":
		r.o.Sleep(p, r.cfg.ReadLatency, obs.CompSSD, op.kind)
		r.acquire(p, r.readBus, "ssd.bus")
		r.o.Sleep(p, time.Duration(int64(op.n)*int64(time.Second)/r.cfg.ReadBps), obs.CompSSD, op.kind)
		r.readBus.Release()
	case "ssd.write":
		r.o.Sleep(p, r.cfg.WriteLatency, obs.CompSSD, op.kind)
		r.acquire(p, r.writeBus, "ssd.bus")
		r.o.Sleep(p, time.Duration(int64(op.n)*int64(time.Second)/r.cfg.WriteBps), obs.CompSSD, op.kind)
		r.writeBus.Release()
	}
	r.channels.Release()
	s.End(p)
}

type ssdOp struct {
	kind string
	at   sim.Time
	n    int
}

// ssdScript is one random schedule of reads, writes and barriers, every one
// issued by a process of its own.
type ssdScript []ssdOp

func randomSSDScript(rng *rand.Rand) ssdScript {
	var s ssdScript
	for i, n := 0, 1+rng.Intn(200); i < n; i++ {
		op := ssdOp{
			kind: []string{"ssd.read", "ssd.write", "ssd.write", "ssd.barrier"}[rng.Intn(4)],
			at:   sim.Time(rng.Intn(40)) * sim.Time(5*sim.Microsecond), // few distinct instants
			n:    []int{0, 512, 4096, 8192, 65536}[rng.Intn(5)] + rng.Intn(64),
		}
		s = append(s, op)
	}
	return s
}

// run plays the script with the resource model (ref) or the device and
// returns every I/O's end instant and the profiled time per interval kind.
func (s ssdScript) run(ref bool) ([]sim.Time, map[string]sim.Time) {
	e := sim.NewEngine(1)
	o := obs.New()
	cfg := testCfg()
	cfg.BarrierLatency = 20 * time.Microsecond
	var io func(p *sim.Proc, op ssdOp)
	if ref {
		io = newRefDevice(e, cfg, o).io
	} else {
		d := New(e, cfg)
		d.AttachObs(o)
		buf := make([]byte, 1<<17)
		io = func(p *sim.Proc, op ssdOp) {
			s := o.Begin(p, "op")
			switch op.kind {
			case "ssd.barrier":
				d.Barrier(p)
			case "ssd.read":
				d.ReadInto(p, 0, buf[:op.n])
			case "ssd.write":
				d.Write(p, 0, buf[:op.n])
			}
			s.End(p)
		}
	}
	ends := make([]sim.Time, len(s))
	for i, op := range s {
		e.Go("io", func(p *sim.Proc) {
			p.SleepUntil(op.at)
			io(p, op)
			ends[i] = p.Now()
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

// TestSSDClockMatchesResources drives the clocks and the resource model with
// the same random schedules: every I/O ends at the same instant, and
// attribution gives the same time to channel queueing, bus waits and media
// and payload service.
func TestSSDClockMatchesResources(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for sched := 0; sched < 200; sched++ {
		s := randomSSDScript(rng)
		wantEnds, wantKinds := s.run(true)
		gotEnds, gotKinds := s.run(false)
		for i, want := range wantEnds {
			if got := gotEnds[i]; got != want {
				t.Fatalf("schedule %d: %s %d (issued at %v, %d B) ends at %v, resource model %v",
					sched, s[i].kind, i, s[i].at, s[i].n, got, want)
			}
		}
		for _, kind := range []string{"ssd.queue", "ssd.bus", "ssd.read", "ssd.write", "ssd.barrier"} {
			if gotKinds[kind] != wantKinds[kind] {
				t.Fatalf("schedule %d: profiled %s = %v, resource model %v", sched, kind, gotKinds[kind], wantKinds[kind])
			}
		}
		if len(gotKinds) != len(wantKinds) {
			t.Fatalf("schedule %d: profiled kinds %v, resource model %v", sched, gotKinds, wantKinds)
		}
	}
}

// TestSSDParksOnce: with four times as many issuers as channels every read
// and write queues for a channel and its bus, yet parks its issuer once.
func TestSSDParksOnce(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	buf := make([]byte, 8192)
	const procs, ios = 16, 8
	for i := 0; i < procs; i++ {
		e.Go("io", func(p *sim.Proc) {
			for j := 0; j < ios; j++ {
				if j%2 == i%2 {
					d.ReadInto(p, 0, buf)
				} else {
					d.Write(p, 0, buf)
				}
			}
		})
	}
	e.Run()
	if n := d.Reads.Total() + d.Writes.Total(); n != procs*ios || e.Parks > n {
		t.Fatalf("%d parks for %d I/Os, want at most one each", e.Parks, n)
	}
}

// TestReadIntoZeroAllocs: a timed read into a caller's buffer, contended or
// not, allocates nothing.
func TestReadIntoZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	d := New(e, testCfg())
	d.WriteRaw(0, make([]byte, 8192))
	for i := 0; i < 8; i++ { // more issuers than channels
		buf := make([]byte, 8192)
		e.Go("io", func(p *sim.Proc) {
			for {
				d.ReadInto(p, 0, buf)
			}
		})
	}
	step := func() { e.RunUntil(e.Now() + sim.Time(100*sim.Microsecond)) }
	for i := 0; i < 16; i++ {
		step()
	}
	before := d.Reads.Total()
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("%v allocs per round of reads, want 0", a)
	}
	if d.Reads.Total() == before {
		t.Fatal("no read completed: the measurement is vacuous")
	}
}
