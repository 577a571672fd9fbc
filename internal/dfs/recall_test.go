package dfs

import (
	"fmt"
	"slices"
	"testing"

	"dpc/internal/model"
	"dpc/internal/sim"
)

// twoClientWorld builds two optimized clients on separate nodes against one
// backend, for coherence tests.
func twoClientWorld(t *testing.T) (*model.Machine, *Backend, *Core, *Core) {
	t.Helper()
	cfg := model.Default()
	cfg.HostMemMB = 16
	cfg.DPUMemMB = 8
	m := model.NewMachine(cfg)
	b := NewBackend(m.Eng, m.Net, DefaultBackendConfig())
	a := NewCore(b, m.Net.NewNode("client-a"), m.HostCPU, DefaultCoreCosts())
	c := NewCore(b, m.Net.NewNode("client-b"), m.HostCPU, DefaultCoreCosts())
	return m, b, a, c
}

func TestDelegationRecallOnRemoteWrite(t *testing.T) {
	m, b, a, bCl := twoClientWorld(t)
	var ino uint64
	m.Eng.Go("setup", func(p *sim.Proc) {
		var err error
		ino, err = a.Create(p, "/shared")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		a.Write(p, ino, 0, make([]byte, BlockSize))
		// Client B takes a delegation: it now caches size = 1 block.
		bIno, size, err := bCl.Lookup(p, "/shared")
		if err != nil || bIno != ino || size != BlockSize {
			t.Errorf("b lookup = %d,%d,%v", bIno, size, err)
		}
	})
	m.Eng.Run()

	// Client A extends the file; the MDS must recall B's delegation.
	m.Eng.Go("writer", func(p *sim.Proc) {
		if err := a.Write(p, ino, BlockSize, make([]byte, BlockSize)); err != nil {
			t.Errorf("extend: %v", err)
		}
		// The lazy size update + recall are asynchronous.
		p.Sleep(sim.Millisecond)
	})
	m.Eng.Run()

	if b.Recalls.Total() == 0 {
		t.Fatal("no recalls sent")
	}
	if bCl.RecallsSeen.Total() == 0 {
		t.Fatal("client B never received the recall")
	}

	// B's delegated read must now see the extended file without a fresh
	// MDS lookup.
	m.Eng.Go("reader", func(p *sim.Proc) {
		b.MDSOps.Mark()
		_, size, err := bCl.Lookup(p, "/shared")
		if err != nil || size != 2*BlockSize {
			t.Errorf("b lookup after recall = size %d, %v (want %d)", size, err, 2*BlockSize)
		}
		if b.MDSOps.Delta() != 0 {
			t.Error("delegated lookup hit the MDS")
		}
		data, err := bCl.Read(p, ino, 0, 2*BlockSize)
		if err != nil || len(data) != 2*BlockSize {
			t.Errorf("b read = %d bytes, %v", len(data), err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestWriterKeepsItsOwnDelegation(t *testing.T) {
	m, b, a, _ := twoClientWorld(t)
	m.Eng.Go("solo", func(p *sim.Proc) {
		ino, _ := a.Create(p, "/mine")
		a.Lookup(p, "/mine") // take a delegation
		a.Write(p, ino, 0, make([]byte, BlockSize))
		p.Sleep(sim.Millisecond)
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	// Writing your own delegated file must not recall yourself.
	if a.RecallsSeen.Total() != 0 {
		t.Fatalf("writer received %d self-recalls", a.RecallsSeen.Total())
	}
	_ = b
}

func TestStdClientWritesRecallOptClientDelegations(t *testing.T) {
	cfg := model.Default()
	cfg.HostMemMB = 16
	cfg.DPUMemMB = 8
	m := model.NewMachine(cfg)
	b := NewBackend(m.Eng, m.Net, DefaultBackendConfig())
	opt := NewCore(b, m.Net.NewNode("opt"), m.HostCPU, DefaultCoreCosts())
	std := NewStdClient(b, m.HostNode, m.HostCPU, DefaultStdClientConfig())
	var ino uint64
	m.Eng.Go("flow", func(p *sim.Proc) {
		var err error
		ino, err = std.Create(p, "/mixed")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		std.Write(p, ino, 0, make([]byte, BlockSize))
		opt.Lookup(p, "/mixed") // delegation at size = 1 block
		// The standard client extends the file through the MDS inline path.
		std.Write(p, ino, BlockSize, make([]byte, BlockSize))
		p.Sleep(sim.Millisecond)
		// The opt client's cached size must have been refreshed.
		_, size, err := opt.Lookup(p, "/mixed")
		if err != nil || size != 2*BlockSize {
			t.Errorf("size after std write = %d, %v", size, err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if opt.RecallsSeen.Total() == 0 {
		t.Fatal("opt client missed the recall from the std client's write")
	}
}

// TestRecallsLeaveInGrantOrder: when a write recalls several delegations,
// the recalls leave the MDS in the order the delegations were granted, so
// each reaches its holder at the same instant in every run. Go randomizes
// map iteration, so holders kept in a map would leave in a different order
// in each fresh world.
func TestRecallsLeaveInGrantOrder(t *testing.T) {
	grantOrder := []int{5, 2, 7, 1, 4, 6, 3} // core 0 creates the file and writes it
	for world := 0; world < 10; world++ {
		cfg := model.Default()
		cfg.HostMemMB = 16
		cfg.DPUMemMB = 8
		m := model.NewMachine(cfg)
		b := NewBackend(m.Eng, m.Net, DefaultBackendConfig())
		var cores []*Core
		var got []int
		var at []sim.Time
		for i := 0; i < 8; i++ {
			node := m.Net.NewNode(fmt.Sprintf("core-%d", i))
			// Started before NewCore's recall loop, this receiver is first in
			// the port's FIFO queue of receivers and takes the one recall.
			m.Eng.Go("recv", func(p *sim.Proc) {
				node.Listen("recall").Recv(p)
				got, at = append(got, i), append(at, p.Now())
			})
			cores = append(cores, NewCore(b, node, m.HostCPU, DefaultCoreCosts()))
		}
		m.Eng.Go("flow", func(p *sim.Proc) {
			ino, err := cores[0].Create(p, "/shared")
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			for _, i := range grantOrder {
				if _, _, err := cores[i].Lookup(p, "/shared"); err != nil {
					t.Errorf("core %d lookup: %v", i, err)
				}
			}
			if err := cores[0].Write(p, ino, 0, make([]byte, BlockSize)); err != nil {
				t.Errorf("write: %v", err)
			}
			p.Sleep(sim.Millisecond)
		})
		m.Eng.Run()
		m.Eng.Shutdown()
		if !slices.Equal(got, grantOrder) {
			t.Fatalf("world %d: recalls arrived at cores %v, want grant order %v", world, got, grantOrder)
		}
		for k := 1; k < len(at); k++ {
			if at[k] <= at[k-1] {
				t.Fatalf("world %d: recall arrivals %v not strictly increasing", world, at)
			}
		}
	}
}
