package pcie

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/mem"
	"dpc/internal/sim"
)

func testLink(e *sim.Engine) *Link {
	return NewLink(e, Config{
		BandwidthBps:  8_000_000_000, // 8 GB/s => 1 byte = 0.125ns
		DMASetup:      600 * time.Nanosecond,
		MMIOLatency:   250 * time.Nanosecond,
		AtomicLatency: 550 * time.Nanosecond,
		Engines:       4,
	})
}

func TestDMAMovesBytesAndCharges(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 8192)
	host.Write(100, []byte("payload"))
	var got []byte
	var took sim.Time
	e.Go("dev", func(p *sim.Proc) {
		start := p.Now()
		got = l.DMARead(p, host, 100, 7, "test")
		took = sim.Time(p.Now() - start)
	})
	e.Run()
	if !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("DMARead = %q", got)
	}
	// 600ns setup + ceil(7 * 0.125)ns payload = 600ns (payload truncates to 0ns at 7B)
	if took < sim.Time(600*time.Nanosecond) || took > sim.Time(700*time.Nanosecond) {
		t.Fatalf("DMA took %v", took)
	}
	if l.DMAs.Total() != 1 || l.DMABytesH2D.Total() != 7 {
		t.Fatalf("counters: dmas=%d h2d=%d", l.DMAs.Total(), l.DMABytesH2D.Total())
	}
}

func TestDMAWriteDirectionAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 4096)
	e.Go("dev", func(p *sim.Proc) {
		l.DMAWrite(p, host, 0, []byte{1, 2, 3, 4}, "w")
	})
	e.Run()
	if l.DMABytesD2H.Total() != 4 || l.DMABytesH2D.Total() != 0 {
		t.Fatalf("direction counters wrong: d2h=%d h2d=%d",
			l.DMABytesD2H.Total(), l.DMABytesH2D.Total())
	}
	if host.Read(0, 4)[3] != 4 {
		t.Fatal("DMAWrite did not land")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two concurrent 8000-byte DMAs at 8 GB/s: payloads serialize on the
	// pipe (1µs each) while setups overlap, so makespan ≈ 600ns + 2µs.
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 1<<20)
	for i := 0; i < 2; i++ {
		e.Go("dev", func(p *sim.Proc) {
			l.DMARead(p, host, 0, 8000, "big")
		})
	}
	e.Run()
	want := sim.Time(600*time.Nanosecond + 2*time.Microsecond)
	if e.Now() != want {
		t.Fatalf("makespan = %v, want %v", e.Now(), want)
	}
}

func TestMMIODoorbell(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	bar := mem.NewRegion("bar", 0x1000, 64)
	e.Go("host", func(p *sim.Proc) {
		l.MMIOWrite32(p, bar, 0x1008, 42, "sq-doorbell")
	})
	e.Run()
	if bar.Uint32(0x1008) != 42 {
		t.Fatal("doorbell value not stored")
	}
	if e.Now() != sim.Time(250*time.Nanosecond) {
		t.Fatalf("MMIO took %v", e.Now())
	}
	if l.MMIOs.Total() != 1 {
		t.Fatalf("MMIOs = %d", l.MMIOs.Total())
	}
}

func TestAtomicCASContention(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 64)
	wins := 0
	for i := 0; i < 3; i++ {
		e.Go("dev", func(p *sim.Proc) {
			if l.AtomicCAS32(p, host, 0, 0, 1, "lock") {
				wins++
			}
		})
	}
	e.Run()
	if wins != 1 {
		t.Fatalf("CAS wins = %d, want exactly 1", wins)
	}
	if l.Atomics.Total() != 3 {
		t.Fatalf("Atomics = %d", l.Atomics.Total())
	}
}

func TestAtomicStoreRelease(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 64)
	host.PutUint32(0, 1)
	e.Go("dev", func(p *sim.Proc) {
		l.AtomicStore32(p, host, 0, 0, "unlock")
	})
	e.Run()
	if host.Uint32(0) != 0 {
		t.Fatal("AtomicStore did not store")
	}
}

func TestTraceAndMark(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 4096)
	var events []Event
	l.Subscribe(func(ev Event) { events = append(events, ev) })
	e.Go("dev", func(p *sim.Proc) {
		l.DMARead(p, host, 0, 64, "sqe")
		l.DMAWrite(p, host, 64, make([]byte, 16), "cqe")
		l.MMIOWrite32(p, host, 128, 1, "db")
	})
	e.Run()
	if len(events) != 3 {
		t.Fatalf("trace events = %d", len(events))
	}
	if events[0].Label != "sqe" || events[0].Op != OpDMA || events[0].Dir != HostToDev {
		t.Fatalf("event[0] = %+v", events[0])
	}
	if events[1].Dir != DevToHost {
		t.Fatalf("event[1] dir = %v", events[1].Dir)
	}
	l.Mark()
	if l.DMAs.Delta() != 0 {
		t.Fatal("Mark did not reset window")
	}
	e.Go("dev2", func(p *sim.Proc) { l.DMARead(p, host, 0, 8, "x") })
	e.Run()
	if l.DMAs.Delta() != 1 {
		t.Fatalf("window delta = %d", l.DMAs.Delta())
	}
}

func TestMultipleSubscribersCoexist(t *testing.T) {
	// A trace printer and a metrics collector must be able to watch the
	// same link at once, and dropping one must not disturb the other.
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 4096)
	if l.Traced() {
		t.Fatal("fresh link reports Traced")
	}
	var a, b int
	idA := l.Subscribe(func(Event) { a++ })
	l.Subscribe(func(Event) { b++ })
	if !l.Traced() {
		t.Fatal("subscribed link not Traced")
	}
	e.Go("dev", func(p *sim.Proc) {
		l.DMARead(p, host, 0, 16, "x")
		l.DMARead(p, host, 0, 16, "y")
	})
	e.Run()
	if a != 2 || b != 2 {
		t.Fatalf("fan-out counts a=%d b=%d, want 2/2", a, b)
	}
	l.Unsubscribe(idA)
	e.Go("dev", func(p *sim.Proc) { l.DMARead(p, host, 0, 16, "z") })
	e.Run()
	if a != 2 || b != 3 {
		t.Fatalf("after Unsubscribe a=%d b=%d, want 2/3", a, b)
	}
	// Unsubscribing an unknown id is a no-op.
	l.Unsubscribe(999)
	if !l.Traced() {
		t.Fatal("remaining subscriber lost")
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 64)
	host.PutUint32(0, 10)
	var prev uint32
	e.Go("dev", func(p *sim.Proc) {
		prev = l.AtomicFetchAdd32(p, host, 0, 5, "faa")
	})
	e.Run()
	if prev != 10 || host.Uint32(0) != 15 {
		t.Fatalf("FAA prev=%d val=%d", prev, host.Uint32(0))
	}
	// Wrapping decrement via two's complement.
	e.Go("dev", func(p *sim.Proc) {
		l.AtomicFetchAdd32(p, host, 0, ^uint32(0), "dec")
	})
	e.Run()
	if host.Uint32(0) != 14 {
		t.Fatalf("decrement = %d", host.Uint32(0))
	}
}

func TestDMAReadInto(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	host := mem.NewRegion("host", 0, 128)
	host.Write(8, []byte("buffered"))
	dst := make([]byte, 8)
	e.Go("dev", func(p *sim.Proc) {
		l.DMAReadInto(p, dst, host, 8, "into")
	})
	e.Run()
	if string(dst) != "buffered" {
		t.Fatalf("DMAReadInto = %q", dst)
	}
	if l.DMAs.Total() != 1 {
		t.Fatalf("DMAs = %d", l.DMAs.Total())
	}
}

func TestConfigAndBadConfigPanics(t *testing.T) {
	e := sim.NewEngine(1)
	l := testLink(e)
	if l.Config().Engines != 4 {
		t.Fatalf("Config = %+v", l.Config())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	NewLink(e, Config{BandwidthBps: 0, Engines: 1})
}

func TestDirAndOpStrings(t *testing.T) {
	if HostToDev.String() != "host->dev" || DevToHost.String() != "dev->host" {
		t.Fatal("Dir strings wrong")
	}
	if OpDMA.String() != "DMA" || OpMMIO.String() != "MMIO" || OpAtomic.String() != "ATOMIC" {
		t.Fatal("Op strings wrong")
	}
}

// TestDMAReadViewLifetime pins the view rule: a view holds exactly the bytes
// DMARead copies, taken at the same instant for the same charge, and stays
// valid only until the issuer next parks. The same script runs once per
// primitive; a host store lands while the DMA is in flight (both must see
// it: the bytes are taken at completion) and another after the issuer parks
// (the copy must not see it; the view is NOT required to hide it — here it
// shows through, which is why consumers decode before they park).
func TestDMAReadViewLifetime(t *testing.T) {
	type result struct {
		atCompletion, afterPark []byte
		done                    sim.Time
		dmas, bytes             int64
	}
	script := func(read func(l *Link, p *sim.Proc, r *mem.Region) []byte) result {
		e := sim.NewEngine(1)
		l := testLink(e)
		host := mem.NewRegion("host", 0, 4096)
		host.Write(64, []byte("old-old-"))
		var res result
		e.Go("host", func(p *sim.Proc) {
			p.Sleep(100 * time.Nanosecond) // DMA issued at 0, completes after 600ns
			host.Write(64, []byte("mid-dma-"))
			p.Sleep(900 * time.Nanosecond) // the issuer is parked in its Sleep by now
			host.Write(64, []byte("too-late"))
		})
		e.Go("dev", func(p *sim.Proc) {
			got := read(l, p, host)
			res.done = p.Now()
			res.atCompletion = append([]byte(nil), got...)
			p.Sleep(time.Microsecond)
			res.afterPark = append([]byte(nil), got...)
		})
		e.Run()
		res.dmas, res.bytes = l.DMAs.Total(), l.DMABytesH2D.Total()
		return res
	}
	cp := script(func(l *Link, p *sim.Proc, r *mem.Region) []byte { return l.DMARead(p, r, 64, 8, "t") })
	vw := script(func(l *Link, p *sim.Proc, r *mem.Region) []byte { return l.DMAReadView(p, r, 64, 8, "t") })

	if string(cp.atCompletion) != "mid-dma-" || !bytes.Equal(vw.atCompletion, cp.atCompletion) {
		t.Fatalf("at completion: copy %q view %q, want both %q", cp.atCompletion, vw.atCompletion, "mid-dma-")
	}
	if vw.done != cp.done || vw.dmas != cp.dmas || vw.bytes != cp.bytes || cp.dmas != 1 || cp.bytes != 8 {
		t.Fatalf("charge differs: copy done=%v dmas=%d bytes=%d, view done=%v dmas=%d bytes=%d",
			cp.done, cp.dmas, cp.bytes, vw.done, vw.dmas, vw.bytes)
	}
	if string(cp.afterPark) != "mid-dma-" {
		t.Fatalf("the private copy changed after the issuer parked: %q", cp.afterPark)
	}
	if string(vw.afterPark) != "too-late" {
		t.Fatalf("view after park = %q: a view aliases host memory, so the late store shows through", vw.afterPark)
	}
}

// TestDMAWriteViewMatchesDMAWrite: filling a write view from pieces lands the
// same bytes at the same instant, for the same charge, as DMAWrite of their
// concatenation.
func TestDMAWriteViewMatchesDMAWrite(t *testing.T) {
	run := func(write func(l *Link, p *sim.Proc, r *mem.Region)) ([]byte, sim.Time, int64, int64) {
		e := sim.NewEngine(1)
		l := testLink(e)
		host := mem.NewRegion("host", 0, 4096)
		var done sim.Time
		e.Go("dev", func(p *sim.Proc) {
			write(l, p, host)
			done = p.Now()
		})
		e.Run()
		return host.Read(0, 32), done, l.DMAs.Total(), l.DMABytesD2H.Total()
	}
	hdr, data := []byte("hdr"), []byte("payload-bytes")
	b1, t1, n1, d1 := run(func(l *Link, p *sim.Proc, r *mem.Region) {
		l.DMAWrite(p, r, 8, append(append([]byte(nil), hdr...), data...), "w")
	})
	b2, t2, n2, d2 := run(func(l *Link, p *sim.Proc, r *mem.Region) {
		dst := l.DMAWriteView(p, r, 8, len(hdr)+len(data), "w")
		copy(dst[copy(dst, hdr):], data)
	})
	if !bytes.Equal(b1, b2) || t1 != t2 || n1 != n2 || d1 != d2 || d1 != int64(len(hdr)+len(data)) {
		t.Fatalf("gather write differs: bytes %q vs %q, done %v vs %v, dmas %d vs %d, d2h %d vs %d", b1, b2, t1, t2, n1, n2, d1, d2)
	}
}
