package virtio

import (
	"bytes"
	"testing"

	"dpc/internal/fuse"
	"dpc/internal/model"
	"dpc/internal/sim"
)

// virtualClient is the in-memory responder from §4.1: it stores writes and
// serves reads from DPU memory, keyed by (node, offset).
type virtualClient struct {
	store map[uint64][]byte
}

func newVirtualClient() *virtualClient { return &virtualClient{store: map[uint64][]byte{}} }

func (v *virtualClient) key(node, off uint64) uint64 { return node<<32 ^ off }

func (v *virtualClient) handle(p *sim.Proc, req fuse.Request) fuse.Response {
	switch req.Header.Opcode {
	case fuse.OpWrite:
		v.store[v.key(req.Header.NodeID, req.IO.Offset)] = append([]byte(nil), req.Data...)
		return fuse.Response{}
	case fuse.OpRead:
		d := v.store[v.key(req.Header.NodeID, req.IO.Offset)]
		if uint32(len(d)) > req.IO.Size {
			d = d[:req.IO.Size]
		}
		return fuse.Response{Data: d}
	default:
		return fuse.Response{Error: -38} // ENOSYS
	}
}

func newTestTransport(t *testing.T) (*model.Machine, *Transport, *virtualClient) {
	t.Helper()
	m := model.NewMachine(model.Default())
	vc := newVirtualClient()
	tr := NewTransport(m, Config{QueueSize: 256, Slots: 64, MaxIO: 64 * 1024}, vc.handle)
	return m, tr, vc
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, tr, _ := newTestTransport(t)
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	m.Eng.Go("app", func(p *sim.Proc) {
		if err := tr.Write(p, 42, 1, 0, payload); err != nil {
			t.Errorf("Write: %v", err)
		}
		var err error
		got, err = tr.Read(p, 42, 1, 0, 8192)
		if err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if !bytes.Equal(got, payload) {
		t.Fatal("read data differs from written data")
	}
	if tr.Completed != 2 {
		t.Fatalf("Completed = %d", tr.Completed)
	}
}

func TestEightKWriteCosts11DMAs(t *testing.T) {
	// The paper's Figure 2(b): an 8 KB write through virtio-fs costs 11
	// DMA operations.
	m, tr, _ := newTestTransport(t)
	m.Eng.Go("app", func(p *sim.Proc) {
		m.PCIe.Mark()
		if err := tr.Write(p, 1, 1, 0, make([]byte, 8192)); err != nil {
			t.Errorf("Write: %v", err)
		}
		if got := m.PCIe.DMAs.Delta(); got != 11 {
			t.Errorf("8K write DMA count = %d, want 11", got)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestEightKReadCosts11DMAs(t *testing.T) {
	m, tr, _ := newTestTransport(t)
	m.Eng.Go("app", func(p *sim.Proc) {
		if err := tr.Write(p, 1, 1, 0, make([]byte, 8192)); err != nil {
			t.Errorf("Write: %v", err)
		}
		m.PCIe.Mark()
		if _, err := tr.Read(p, 1, 1, 0, 8192); err != nil {
			t.Errorf("Read: %v", err)
		}
		if got := m.PCIe.DMAs.Delta(); got != 11 {
			t.Errorf("8K read DMA count = %d, want 11", got)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestFourKWriteCostsFewerDMAs(t *testing.T) {
	// 4K payload spans one page instead of two: one less descriptor read.
	m, tr, _ := newTestTransport(t)
	m.Eng.Go("app", func(p *sim.Proc) {
		m.PCIe.Mark()
		if err := tr.Write(p, 1, 1, 0, make([]byte, 4096)); err != nil {
			t.Errorf("Write: %v", err)
		}
		if got := m.PCIe.DMAs.Delta(); got != 10 {
			t.Errorf("4K write DMA count = %d, want 10", got)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestConcurrentRequestsAllComplete(t *testing.T) {
	m, tr, _ := newTestTransport(t)
	const threads = 32
	const opsPer = 10
	completed := 0
	for th := 0; th < threads; th++ {
		th := th
		m.Eng.Go("app", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte(th)
			}
			for op := 0; op < opsPer; op++ {
				if err := tr.Write(p, uint64(th), 1, uint64(op)*4096, buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := tr.Read(p, uint64(th), 1, uint64(op)*4096, 4096)
				if err != nil || len(got) != 4096 || got[0] != byte(th) {
					t.Errorf("read verify failed: %v len=%d", err, len(got))
					return
				}
				completed++
			}
		})
	}
	m.Eng.Run()
	m.Eng.Shutdown()
	if completed != threads*opsPer {
		t.Fatalf("completed = %d, want %d", completed, threads*opsPer)
	}
}

func TestUnknownOpcodeReturnsError(t *testing.T) {
	m, tr, _ := newTestTransport(t)
	m.Eng.Go("app", func(p *sim.Proc) {
		_, errno := tr.do(p, fuse.OpMkdir, 1, 0, 0, nil, 0)
		if errno != -38 {
			t.Errorf("errno = %d, want -38", errno)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestSingleHALThreadSerializes(t *testing.T) {
	// With one HAL thread, N concurrent ops take at least N * (per-op HAL
	// service time): latency grows with concurrency instead of IOPS.
	m, tr, _ := newTestTransport(t)
	var lat1, lat16 sim.Time
	m.Eng.Go("probe1", func(p *sim.Proc) {
		start := p.Now()
		_ = tr.Write(p, 1, 1, 0, make([]byte, 4096))
		lat1 = p.Now() - start
	})
	m.Eng.Run()
	for i := 0; i < 16; i++ {
		m.Eng.Go("probe16", func(p *sim.Proc) {
			start := p.Now()
			_ = tr.Write(p, 2, 1, 0, make([]byte, 4096))
			if l := p.Now() - start; l > lat16 {
				lat16 = l
			}
		})
	}
	m.Eng.Run()
	m.Eng.Shutdown()
	if lat16 < 3*lat1 {
		t.Fatalf("single-queue bottleneck missing: lat1=%v lat16=%v", lat1, lat16)
	}
}
