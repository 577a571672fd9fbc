package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dpc/internal/model"
	"dpc/internal/sim"
)

type world struct {
	m   *model.Machine
	b   *Backend
	std *StdClient
	opt *Core
}

func newWorld(t *testing.T) *world {
	t.Helper()
	cfg := model.Default()
	cfg.HostMemMB = 16
	cfg.DPUMemMB = 8
	m := model.NewMachine(cfg)
	b := NewBackend(m.Eng, m.Net, DefaultBackendConfig())
	std := NewStdClient(b, m.HostNode, m.HostCPU, DefaultStdClientConfig())
	// Give the optimized client its own node so NIC accounting separates.
	optNode := m.Net.NewNode("host-opt")
	opt := NewCore(b, optNode, m.HostCPU, DefaultCoreCosts())
	return &world{m: m, b: b, std: std, opt: opt}
}

func (w *world) run(fn func(p *sim.Proc)) {
	w.m.Eng.Go("test", fn)
	w.m.Eng.Run()
}

func TestStdClientCreateWriteRead(t *testing.T) {
	w := newWorld(t)
	payload := make([]byte, 16384)
	rand.New(rand.NewSource(1)).Read(payload)
	w.run(func(p *sim.Proc) {
		ino, err := w.std.Create(p, "/vol/f1")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := w.std.Write(p, ino, 0, payload); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got, err := w.std.Read(p, ino, 0, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("Read mismatch (err=%v, %d bytes)", err, len(got))
		}
		gotIno, size, err := w.std.Lookup(p, "/vol/f1")
		if err != nil || gotIno != ino || size != uint64(len(payload)) {
			t.Errorf("Lookup = %d,%d,%v", gotIno, size, err)
		}
	})
	w.m.Eng.Shutdown()
}

func TestOptClientCreateWriteRead(t *testing.T) {
	w := newWorld(t)
	payload := make([]byte, 3*BlockSize)
	rand.New(rand.NewSource(2)).Read(payload)
	w.run(func(p *sim.Proc) {
		ino, err := w.opt.Create(p, "/vol/f2")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := w.opt.Write(p, ino, 0, payload); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got, err := w.opt.Read(p, ino, 0, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("Read mismatch (err=%v)", err)
		}
	})
	w.m.Eng.Shutdown()
}

func TestClientsInteroperate(t *testing.T) {
	// Data written by the std client (server-side EC) must be readable by
	// the optimized client (client-side shard reads) and vice versa.
	w := newWorld(t)
	payload := make([]byte, BlockSize)
	rand.New(rand.NewSource(3)).Read(payload)
	w.run(func(p *sim.Proc) {
		ino, _ := w.std.Create(p, "/shared")
		if err := w.std.Write(p, ino, 0, payload); err != nil {
			t.Errorf("std write: %v", err)
			return
		}
		ino2, size, err := w.opt.Lookup(p, "/shared")
		if err != nil || ino2 != ino || size != BlockSize {
			t.Errorf("opt lookup = %d,%d,%v", ino2, size, err)
			return
		}
		got, err := w.opt.Read(p, ino, 0, BlockSize)
		if err != nil || !bytes.Equal(got, payload) {
			t.Error("opt read of std-written data mismatched")
		}
	})
	w.m.Eng.Shutdown()
}

func TestECShardsActuallyDistributed(t *testing.T) {
	w := newWorld(t)
	var ino uint64
	w.run(func(p *sim.Proc) {
		ino, _ = w.opt.Create(p, "/striped")
		w.opt.Write(p, ino, 0, make([]byte, BlockSize))
	})
	w.m.Eng.Shutdown()
	cfg := w.b.Config()
	stored := 0
	for _, d := range w.b.ds {
		stored += len(d.store)
	}
	if stored != cfg.ECData+cfg.ECParity {
		t.Fatalf("%d shards stored, want %d", stored, cfg.ECData+cfg.ECParity)
	}
	// Every shard lands on the data server the placement function says.
	for i, ds := range w.b.Placement(ino, 0) {
		if _, ok := w.b.ds[ds].store[ShardKey(ino, 0, i)]; !ok {
			t.Fatalf("shard %d missing from ds %d", i, ds)
		}
	}
}

func TestDegradedReadReconstructs(t *testing.T) {
	w := newWorld(t)
	payload := make([]byte, 2*BlockSize)
	rand.New(rand.NewSource(4)).Read(payload)
	var ino uint64
	w.run(func(p *sim.Proc) {
		ino, _ = w.opt.Create(p, "/degraded")
		w.opt.Write(p, ino, 0, payload)
	})
	// Take down the data server holding block 0's first data shard.
	down := w.b.Placement(ino, 0)[0]
	w.b.ds[down].down = true
	w.run(func(p *sim.Proc) {
		got, err := w.opt.Read(p, ino, 0, len(payload))
		if err != nil {
			t.Errorf("degraded read: %v", err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("degraded read returned wrong data")
		}
	})
	w.m.Eng.Shutdown()
}

func TestEntryMDSForwardingOnlyForStdClient(t *testing.T) {
	w := newWorld(t)
	w.run(func(p *sim.Proc) {
		// Create many files via the std client: most paths hash to a
		// non-entry home MDS and must be forwarded.
		for i := 0; i < 20; i++ {
			w.std.Create(p, fmt.Sprintf("/fwd/file%d", i))
		}
	})
	fwd := w.b.Forwards.Total()
	if fwd == 0 {
		t.Fatal("no forwards recorded for the standard client")
	}
	w.b.Forwards.Mark()
	w.run(func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			w.opt.Create(p, fmt.Sprintf("/direct/file%d", i))
		}
	})
	w.m.Eng.Shutdown()
	if d := w.b.Forwards.Delta(); d != 0 {
		t.Fatalf("optimized client caused %d forwards", d)
	}
}

func TestDelegationCacheAvoidsMDS(t *testing.T) {
	w := newWorld(t)
	w.run(func(p *sim.Proc) {
		w.opt.Create(p, "/hot")
		w.b.MDSOps.Mark()
		for i := 0; i < 10; i++ {
			if _, _, err := w.opt.Lookup(p, "/hot"); err != nil {
				t.Errorf("Lookup: %v", err)
			}
		}
		if d := w.b.MDSOps.Delta(); d != 0 {
			t.Errorf("delegated lookups hit the MDS %d times", d)
		}
	})
	w.m.Eng.Shutdown()
	if w.opt.DelegHits.Total() != 10 {
		t.Fatalf("DelegHits = %d", w.opt.DelegHits.Total())
	}
}

func TestLazySizeUpdateEventuallyVisible(t *testing.T) {
	w := newWorld(t)
	var ino uint64
	w.run(func(p *sim.Proc) {
		ino, _ = w.opt.Create(p, "/lazy")
		w.opt.Write(p, ino, 0, make([]byte, BlockSize))
		// Give the lazy update a moment to land.
		p.Sleep(sim.Millisecond)
		resp := w.opt.homeCall(p, w.b.HomeMDSOfIno(ino), mdsReq{Op: mdsGetattr, Ino: ino})
		if resp.Size != BlockSize {
			t.Errorf("MDS size = %d after lazy update", resp.Size)
		}
	})
	w.m.Eng.Shutdown()
}

func TestStdClientSlotTableLimitsParallelism(t *testing.T) {
	// With 64 threads and 16 slots, std-client throughput is slot-bound:
	// the same workload on the optimized client must finish much faster.
	runWith := func(use string) sim.Time {
		w := newWorld(t)
		var ino uint64
		w.run(func(p *sim.Proc) {
			if use == "std" {
				ino, _ = w.std.Create(p, "/bench")
				w.std.Write(p, ino, 0, make([]byte, 64*BlockSize))
			} else {
				ino, _ = w.opt.Create(p, "/bench")
				w.opt.Write(p, ino, 0, make([]byte, 64*BlockSize))
			}
		})
		start := w.m.Eng.Now()
		for th := 0; th < 64; th++ {
			w.m.Eng.Go("load", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					if use == "std" {
						w.std.Read(p, ino, uint64(i%64)*BlockSize, BlockSize)
					} else {
						w.opt.Read(p, ino, uint64(i%64)*BlockSize, BlockSize)
					}
				}
			})
		}
		w.m.Eng.Run()
		end := w.m.Eng.Now()
		w.m.Eng.Shutdown()
		return end - start
	}
	tStd, tOpt := runWith("std"), runWith("opt")
	if tOpt*3/2 >= tStd {
		t.Fatalf("opt client not faster under load: std=%v opt=%v", tStd, tOpt)
	}
}

func TestHostCPUCostDifference(t *testing.T) {
	// The optimized client burns far more host CPU per op than the std
	// client (Figure 1's tradeoff).
	w := newWorld(t)
	var ino uint64
	w.run(func(p *sim.Proc) {
		ino, _ = w.opt.Create(p, "/cpu")
		w.opt.Write(p, ino, 0, make([]byte, 8*BlockSize))
	})
	w.m.HostCPU.Mark()
	w.run(func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			w.std.Read(p, ino, 0, BlockSize)
		}
	})
	stdCores := w.m.HostCPU.CoresUsed()
	w.m.HostCPU.Mark()
	w.run(func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			w.opt.Write(p, ino, 0, make([]byte, BlockSize))
		}
	})
	optCores := w.m.HostCPU.CoresUsed()
	w.m.Eng.Shutdown()
	if optCores <= stdCores {
		t.Fatalf("opt client CPU (%.3f cores) not above std client (%.3f cores)", optCores, stdCores)
	}
}
