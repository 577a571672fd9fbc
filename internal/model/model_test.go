package model

import (
	"strings"
	"testing"
	"time"

	"dpc/internal/cpu"
	"dpc/internal/sim"
)

func TestDefaultConfigSane(t *testing.T) {
	c := Default()
	if c.HostCores != 52 || c.DPUCores != 24 {
		t.Fatalf("core counts host=%d dpu=%d", c.HostCores, c.DPUCores)
	}
	if c.DPUFreqHz != 2_000_000_000 {
		t.Fatalf("DPU freq = %d", c.DPUFreqHz)
	}
	if c.Costs.TGTPollDelay <= 0 || c.Costs.FlushInterval <= 0 {
		t.Fatal("polling delays must be positive")
	}
}

func TestMachineAssembly(t *testing.T) {
	m := NewMachine(Default())
	// A pool runs as many executions at once as it has cores: offer each one
	// more than that. The extra one finds no core free, so it starts when the
	// first ones end and pays the pool's switch overhead.
	ends := map[*cpu.Pool][]sim.Time{}
	offer := func(pool *cpu.Pool, n int) {
		for i := 0; i <= n; i++ {
			m.Eng.Go("w", func(p *sim.Proc) {
				pool.ExecDuration(p, time.Microsecond)
				ends[pool] = append(ends[pool], p.Now())
			})
		}
	}
	offer(m.HostCPU, 52)
	offer(m.DPUCPU, 24)
	m.Eng.Run()
	for _, c := range []struct {
		pool  *cpu.Pool
		cores int
		sw    time.Duration
	}{{m.HostCPU, 52, m.Cfg.HostSwitch}, {m.DPUCPU, 24, m.Cfg.DPUSwitch}} {
		e := ends[c.pool]
		if e[c.cores-1] != sim.Time(time.Microsecond) || e[c.cores] != sim.Time(2*time.Microsecond+c.sw) {
			t.Fatalf("%s: %d executions of 1µs end at %v and %v, want 1µs and 2µs + %v",
				c.pool.Name(), c.cores+1, e[c.cores-1], e[c.cores], c.sw)
		}
	}
	if m.HostMem.Size() != 0 || m.DPUMem.Size() != 0 {
		t.Fatalf("bare machine reserved %d host and %d DPU bytes", m.HostMem.Size(), m.DPUMem.Size())
	}
	a := m.AllocHost(100, 64)
	b := m.AllocHost(8, 4096)
	if got, want := m.HostMem.Size(), int(b+8-m.HostMem.Base()); got != want || a != m.HostMem.Base() {
		t.Fatalf("host arena holds %d bytes from %#x, want the %d reserved from %#x", got, uint64(a), want, uint64(m.HostMem.Base()))
	}
	if m.HostNode.Name() != "host" || m.DPUNode.Name() != "dpu" {
		t.Fatal("network nodes not created")
	}
}

func TestAllocAlignment(t *testing.T) {
	m := NewMachine(Default())
	a := m.AllocHost(100, 64)
	if uint64(a)%64 != 0 {
		t.Fatalf("alloc %#x not 64-aligned", uint64(a))
	}
	b := m.AllocHost(8, 4096)
	if uint64(b)%4096 != 0 {
		t.Fatalf("alloc %#x not page-aligned", uint64(b))
	}
	if b <= a {
		t.Fatal("bump allocator went backwards")
	}
	if d := m.AllocDPU(1024, 8); len(m.DPUMem.Slice(d, 1024)) != 1024 {
		t.Fatal("DPU alloc outside DPU DRAM")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	cfg := Default()
	cfg.HostMemMB = 1
	m := NewMachine(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("arena exhaustion did not panic")
		}
	}()
	m.AllocHost(2*1024*1024, 1)
}

func TestEnvString(t *testing.T) {
	s := Default().EnvString()
	for _, want := range []string{"DPU", "24 cores", "NVMe SSD", "PCIe"} {
		if !strings.Contains(s, want) {
			t.Errorf("EnvString missing %q:\n%s", want, s)
		}
	}
}
