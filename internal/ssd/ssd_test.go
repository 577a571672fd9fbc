package ssd

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/sim"
)

func testCfg() Config {
	return Config{
		ReadLatency:  88 * time.Microsecond,
		WriteLatency: 14 * time.Microsecond,
		ReadBps:      3_200_000_000,
		WriteBps:     2_100_000_000,
		Channels:     4,
		CapacityMB:   64,
	}
}

func TestDataRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	payload := []byte("the quick brown fox")
	e.Go("io", func(p *sim.Proc) {
		if err := d.Write(p, 10_000, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := d.Read(p, 10_000, len(payload))
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("round trip = %q", got)
		}
	})
	e.Run()
	if d.Reads.Total() != 1 || d.Writes.Total() != 1 {
		t.Fatalf("counters: r=%d w=%d", d.Reads.Total(), d.Writes.Total())
	}
}

func TestCrossBlockBoundary(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	// Spans three 4K blocks.
	payload := make([]byte, 3*BlockSize)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	d.WriteRaw(BlockSize-100, payload)
	got := d.ReadRaw(BlockSize-100, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-block round trip failed")
	}
	if d.AllocatedBlocks() != 4 {
		t.Fatalf("AllocatedBlocks = %d, want 4", d.AllocatedBlocks())
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	for _, b := range d.ReadRaw(123, 100) {
		if b != 0 {
			t.Fatal("unwritten bytes not zero")
		}
	}
}

func TestLatencyCharged(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	var readDone, writeDone sim.Time
	e.Go("w", func(p *sim.Proc) {
		d.Write(p, 0, make([]byte, 4096))
		writeDone = p.Now()
		start := p.Now()
		d.Read(p, 0, 4096)
		readDone = p.Now() - start
	})
	e.Run()
	// write: 14µs + 4096/2.1GB/s ≈ 14µs + 1.95µs
	if writeDone < sim.Time(14*time.Microsecond) || writeDone > sim.Time(18*time.Microsecond) {
		t.Fatalf("write latency = %v", writeDone)
	}
	// read: 88µs + 4096/3.2GB/s ≈ 88µs + 1.28µs
	if readDone < sim.Time(88*time.Microsecond) || readDone > sim.Time(92*time.Microsecond) {
		t.Fatalf("read latency = %v", readDone)
	}
}

func TestChannelLimitCapsIOPS(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testCfg()
	cfg.Channels = 2
	d := New(e, cfg)
	// 8 reads on 2 channels: 4 waves of 88µs (+~1µs xfer each, serialized).
	for i := 0; i < 8; i++ {
		e.Go("r", func(p *sim.Proc) { d.Read(p, 0, 4096) })
	}
	e.Run()
	min := sim.Time(4 * 88 * time.Microsecond)
	if e.Now() < min {
		t.Fatalf("makespan %v below channel-limited minimum %v", e.Now(), min)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-capacity access did not panic")
		}
	}()
	d.WriteRaw(int64(testCfg().CapacityMB)*1024*1024, []byte{1})
}

func TestInjectedReadErrorAndStall(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	d.SetFaults(fault.New(e, []fault.Rule{
		{Site: fault.SiteSSDRead, Kind: fault.KindSSDReadErr, FromOp: 1, Count: 1},
		{Site: fault.SiteSSDWrite, Kind: fault.KindSSDStall, FromOp: 1, Count: 1, Delay: 300 * time.Microsecond},
		{Site: fault.SiteSSDWrite, Kind: fault.KindSSDWriteErr, FromOp: 2, Count: 1},
	}))
	e.Go("io", func(p *sim.Proc) {
		start := p.Now()
		if err := d.Write(p, 0, make([]byte, 4096)); err != nil {
			t.Errorf("stalled write should still succeed: %v", err)
		}
		// Write: 14µs media + ~2µs xfer + 300µs injected stall.
		if took := p.Now() - start; took < sim.Time(300*time.Microsecond) {
			t.Errorf("stall not charged: write took %v", took)
		}
		if _, err := d.Read(p, 0, 4096); err == nil {
			t.Error("injected read error not surfaced")
		}
		// The injection budget is spent: the retry succeeds.
		if _, err := d.Read(p, 0, 4096); err != nil {
			t.Errorf("read after budget spent: %v", err)
		}
		if err := d.Write(p, 0, make([]byte, 4096)); err == nil {
			t.Error("injected write error not surfaced")
		}
		if err := d.Write(p, 0, make([]byte, 4096)); err != nil {
			t.Errorf("write after budget spent: %v", err)
		}
	})
	e.Run()
	if d.ReadErrs.Total() != 1 || d.WriteErrs.Total() != 1 || d.Stalls.Total() != 1 {
		t.Fatalf("read_errs=%d write_errs=%d stalls=%d, want 1/1/1", d.ReadErrs.Total(), d.WriteErrs.Total(), d.Stalls.Total())
	}
	// A failed I/O was still issued to the media: it counts as an I/O.
	if d.Reads.Total() != 2 || d.Writes.Total() != 3 {
		t.Fatalf("reads=%d writes=%d, want 2/3", d.Reads.Total(), d.Writes.Total())
	}
}

func TestFailedWriteLeavesBytesUntouched(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	e.Go("seed", func(p *sim.Proc) { d.Write(p, 0, []byte("original")) })
	e.Run()
	d.SetFaults(fault.New(e, []fault.Rule{
		{Site: fault.SiteSSDWrite, Kind: fault.KindSSDWriteErr, FromOp: 1, Count: 1},
	}))
	e.Go("clobber", func(p *sim.Proc) {
		if err := d.Write(p, 0, []byte("clobbered")); err == nil {
			t.Error("injected write error not surfaced")
		}
	})
	e.Run()
	if got := string(d.ReadRaw(0, 8)); got != "original" {
		t.Fatalf("failed write mutated device: %q", got)
	}
}

// Undo images are recycled through a free list fed by Barrier. A crash after
// write → barrier → write must revert each lost block to exactly its
// pre-write image, and an image that Crash installed as a live block must not
// also sit in the list: both are checked by filling the list with 0xDB
// whenever it is supposed to hold only dead buffers.
func TestCrashRevertsToImageWithFreeListPoisoned(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, testCfg())
	d.EnableCrashTracking()
	const blocks = 24
	gen := func(v byte) [][]byte {
		out := make([][]byte, blocks)
		for b := range out {
			out[b] = bytes.Repeat([]byte{v, byte(b)}, BlockSize/2)
		}
		return out
	}
	write := func(g [][]byte) {
		for b, data := range g {
			d.WriteRaw(int64(b)*BlockSize, data)
		}
	}
	poisonFreeList := func() {
		for _, img := range d.freeImages {
			img = img[:cap(img)]
			for i := range img {
				img[i] = 0xDB
			}
		}
	}
	// check reports how many blocks hold old's bytes; every other must hold new's.
	check := func(when string, old, new [][]byte) int {
		reverted := 0
		for b := 0; b < blocks; b++ {
			switch got := d.ReadRaw(int64(b)*BlockSize, BlockSize); {
			case bytes.Equal(got, old[b]):
				reverted++
			case !bytes.Equal(got, new[b]):
				t.Fatalf("%s: block %d is neither its pre-write image nor the written bytes (first bytes %x)", when, b, got[:4])
			}
		}
		return reverted
	}
	a, b, c, dd, ee := gen(1), gen(2), gen(3), gen(4), gen(5)
	e.Go("io", func(p *sim.Proc) {
		write(a) // first writes: nothing to image
		d.Barrier(p)
		write(b) // images of a, freshly allocated
		d.Barrier(p)
		if len(d.freeImages) != blocks {
			t.Fatalf("free list holds %d images after the barrier, want %d", len(d.freeImages), blocks)
		}
		poisonFreeList()
		write(c) // images of b, in recycled buffers
		if len(d.freeImages) != 0 {
			t.Fatalf("%d images left in the list: the writes did not reuse it", len(d.freeImages))
		}
		lost := d.Crash(rand.New(rand.NewSource(3)))
		if n := check("first crash", b, c); n != lost || lost == 0 || lost == blocks {
			t.Fatalf("first crash: %d blocks reverted, Crash reported %d of %d", n, lost, blocks)
		}
		// Some of b's images are live blocks now. Overwrite everything and go
		// round again; the poison must reach none of them.
		write(dd)
		d.Barrier(p)
		poisonFreeList()
		check("after the second barrier", dd, dd)
		write(ee)
		poisonFreeList()
		lost = d.Crash(rand.New(rand.NewSource(4)))
		if n := check("second crash", dd, ee); n != lost {
			t.Fatalf("second crash: %d blocks reverted, Crash reported %d", n, lost)
		}
	})
	e.Run()
	e.Shutdown()
}

// In steady state, overwriting tracked blocks and issuing the barrier
// allocates nothing: images come from the free list and the map is cleared,
// not replaced.
func TestTrackedOverwriteBarrierZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	d := New(e, testCfg())
	d.EnableCrashTracking()
	data := bytes.Repeat([]byte{7}, 4*BlockSize)
	kick := sim.NewCond(e, "step")
	e.Go("io", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			d.WriteRaw(0, data)
			d.Barrier(p)
		}
	})
	step := func() { kick.Signal(); e.Run() }
	for i := 0; i < 4; i++ {
		step()
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("overwrite of 4 tracked blocks + barrier: %v allocs, want 0", a)
	}
}
