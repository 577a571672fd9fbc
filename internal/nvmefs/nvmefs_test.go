package nvmefs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// virtualClient responds from DPU memory, as in the paper's §4.1 raw
// transmission setup.
type virtualClient struct {
	store map[uint64][]byte
}

func newVirtualClient() *virtualClient { return &virtualClient{store: map[uint64][]byte{}} }

func (v *virtualClient) handle(p *sim.Proc, req Request) Response {
	// Request header: 8-byte node id + 8-byte offset.
	if len(req.Header) < 16 {
		return Response{Status: nvme.StatusInvalid}
	}
	node := binary.LittleEndian.Uint64(req.Header)
	off := binary.LittleEndian.Uint64(req.Header[8:])
	key := node<<32 ^ off
	switch req.SQE.FileOp {
	case nvme.FileOpWrite:
		v.store[key] = append([]byte(nil), req.Data...)
		return Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
	case nvme.FileOpRead:
		d := v.store[key]
		return Response{Status: nvme.StatusOK, Data: d, Header: []byte{1}}
	default:
		return Response{Status: nvme.StatusInvalid}
	}
}

func header(node, off uint64) []byte {
	h := make([]byte, 16)
	binary.LittleEndian.PutUint64(h, node)
	binary.LittleEndian.PutUint64(h[8:], off)
	return h
}

func newTestDriver(t *testing.T, queues int) (*model.Machine, *Driver, *virtualClient) {
	t.Helper()
	m := newTestMachine(t, model.Default())
	vc := newVirtualClient()
	d := NewDriver(m, Config{Queues: queues, Depth: 64, SlotsPerQ: 32, MaxIO: 64 * 1024, RHCap: 256}, vc.handle)
	return m, d, vc
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, d, _ := newTestDriver(t, 4)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var got []byte
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{
			FileOp: nvme.FileOpWrite, Header: header(7, 0), Payload: payload,
		})
		if !w.OK() || w.Result != 8192 {
			t.Errorf("write completion = %+v", w)
		}
		r := d.Submit(p, 0, Submission{
			FileOp: nvme.FileOpRead, Header: header(7, 0), ReadLen: 8192, RHLen: 1,
		})
		if !r.OK() {
			t.Errorf("read completion = %+v", r)
		}
		got = r.Data
	})
	m.Eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("read data differs from written data")
	}
}

func TestEightKWriteCosts4DMAs(t *testing.T) {
	// Figure 4: an 8 KB write with nvme-fs involves exactly 4 DMAs.
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		m.PCIe.Mark()
		c := d.Submit(p, 0, Submission{
			FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: make([]byte, 8192),
		})
		if !c.OK() {
			t.Errorf("completion = %+v", c)
		}
		if got := m.PCIe.DMAs.Delta(); got != 4 {
			t.Errorf("8K write DMA count = %d, want 4", got)
		}
	})
	m.Eng.Run()
}

func TestEightKReadCosts4DMAs(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: make([]byte, 8192)})
		m.PCIe.Mark()
		c := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: header(1, 0), ReadLen: 8192, RHLen: 1})
		if !c.OK() {
			t.Errorf("completion = %+v", c)
		}
		if got := m.PCIe.DMAs.Delta(); got != 4 {
			t.Errorf("8K read DMA count = %d, want 4", got)
		}
	})
	m.Eng.Run()
}

func TestSQEOnTheWireIsBidirectionalVendorCommand(t *testing.T) {
	// Sniff the SQE bytes the TGT DMA-reads and verify the 0xA3 encoding
	// actually crosses the wire.
	m, d, _ := newTestDriver(t, 1)
	var sniffed []nvme.SQE
	m.PCIe.Subscribe(func(ev pcie.Event) {
		if ev.Label == "sqe" {
			sqe, err := nvme.UnmarshalSQE(m.HostMem.Read(ev.Addr, nvme.SQESize))
			if err != nil {
				t.Errorf("corrupt wire SQE: %v", err)
				return
			}
			sniffed = append(sniffed, sqe)
		}
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		c := d.Submit(p, 2, Submission{
			FileOp:   nvme.FileOpWrite,
			Dispatch: nvme.DispatchDFS,
			Header:   header(1, 4096),
			Payload:  make([]byte, 4096),
		})
		if !c.OK() {
			t.Errorf("completion = %+v", c)
		}
	})
	m.Eng.Run()
	if len(sniffed) != 1 {
		t.Fatalf("sniffed %d SQEs", len(sniffed))
	}
	s := sniffed[0]
	if s.Opcode != nvme.OpcodeBidir || s.Dispatch != nvme.DispatchDFS {
		t.Fatalf("wire SQE = %+v", s)
	}
	if s.WriteLen != 64+4096 || s.WHLen != 16 {
		t.Fatalf("wire lengths: WriteLen=%d WHLen=%d", s.WriteLen, s.WHLen)
	}
}

func TestDispatchBitReachesHandler(t *testing.T) {
	m := newTestMachine(t, model.Default())
	var sawDispatch []uint8
	d := NewDriver(m, Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 8192, RHCap: 64},
		func(p *sim.Proc, req Request) Response {
			sawDispatch = append(sawDispatch, req.SQE.Dispatch)
			return Response{Status: nvme.StatusOK}
		})
	m.Eng.Go("app", func(p *sim.Proc) {
		d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Dispatch: nvme.DispatchKVFS, Header: header(1, 0), Payload: make([]byte, 512)})
		d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Dispatch: nvme.DispatchDFS, Header: header(1, 0), Payload: make([]byte, 512)})
	})
	m.Eng.Run()
	if len(sawDispatch) != 2 || sawDispatch[0] != nvme.DispatchKVFS || sawDispatch[1] != nvme.DispatchDFS {
		t.Fatalf("dispatch bits = %v", sawDispatch)
	}
}

func TestMultiQueueParallelism(t *testing.T) {
	// The same workload on 1 queue vs 8 queues: multi-queue must be
	// substantially faster (this is nvme-fs's advantage over virtio-fs).
	run := func(queues int) sim.Time {
		m := newTestMachine(t, model.Default())
		vc := newVirtualClient()
		d := NewDriver(m, Config{Queues: queues, Depth: 64, SlotsPerQ: 32, MaxIO: 16 * 1024, RHCap: 64}, vc.handle)
		const threads = 16
		for th := 0; th < threads; th++ {
			th := th
			m.Eng.Go("app", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					d.Submit(p, th, Submission{
						FileOp: nvme.FileOpWrite, Header: header(uint64(th), 0),
						Payload: make([]byte, 4096),
					})
				}
			})
		}
		m.Eng.Run()
		end := m.Eng.Now()
		return end
	}
	t1, t8 := run(1), run(8)
	if t8*2 >= t1 {
		t.Fatalf("multi-queue speedup missing: 1q=%v 8q=%v", t1, t8)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// More in-flight requests than depth+slots: everything still completes.
	m, d, _ := newTestDriver(t, 1)
	done := 0
	for i := 0; i < 200; i++ {
		m.Eng.Go("app", func(p *sim.Proc) {
			c := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(9, 0), Payload: make([]byte, 512)})
			if c.OK() {
				done++
			}
		})
	}
	m.Eng.Run()
	if done != 200 {
		t.Fatalf("done = %d, want 200", done)
	}
	if d.Completed != 200 {
		t.Fatalf("Completed = %d", d.Completed)
	}
}

func TestInvalidFileOpRejected(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		c := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRename, Header: header(1, 0), Payload: make([]byte, 64)})
		if c.Status != nvme.StatusInvalid {
			t.Errorf("status = %s", nvme.StatusString(c.Status))
		}
	})
	m.Eng.Run()
}

func TestLatencyLowAtSingleThread(t *testing.T) {
	// Sanity calibration: single-thread 8K round trip should be in the
	// tens of microseconds (paper: 20.6/26.6 µs best case).
	m, d, _ := newTestDriver(t, 1)
	var lat sim.Time
	m.Eng.Go("app", func(p *sim.Proc) {
		start := p.Now()
		d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: make([]byte, 8192)})
		lat = p.Now() - start
	})
	m.Eng.Run()
	if lat < sim.Time(5*sim.Microsecond) || lat > sim.Time(60*sim.Microsecond) {
		t.Fatalf("single-thread 8K write latency = %v", lat)
	}
	t.Logf("8K write latency: %v", lat)
}

// TestOneCommandPerQueueResidentHostMem bounds the host memory a default
// driver backs with one 8 KiB command in flight on every queue: each queue's
// rings and the one slot its command took. The other 15 slots of each queue
// are reserved but never touched, so they are never backed.
func TestOneCommandPerQueueResidentHostMem(t *testing.T) {
	m := newTestMachine(t, model.Default())
	cfg := DefaultConfig()
	d := NewDriver(m, cfg, newVirtualClient().handle)
	payload := bytes.Repeat([]byte{0xA7}, 8192)
	for q := 0; q < cfg.Queues; q++ {
		m.Eng.Go("app", func(p *sim.Proc) {
			if c := d.Submit(p, q, Submission{FileOp: nvme.FileOpWrite, Header: header(uint64(q), 0), Payload: payload}); !c.OK() {
				t.Errorf("queue %d: write completion %+v", q, c)
			}
		})
	}
	m.Eng.Run()
	slot := 64 + cfg.RHCap + 2*cfg.MaxIO
	rings := cfg.Depth * (nvme.SQESize + nvme.CQESize)
	if got, bound := m.HostMem.Resident(), cfg.Queues*(rings+slot); got > bound {
		t.Errorf("%d bytes of host memory backed, want at most %d: %d queues' rings and one %d-byte slot each (%d reserved)",
			got, bound, cfg.Queues, slot, m.HostMem.Size())
	}
}
