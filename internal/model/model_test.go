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
	// more than that.
	offer := func(pool *cpu.Pool, n int) {
		for i := 0; i <= n; i++ {
			m.Eng.Go("w", func(p *sim.Proc) { pool.ExecDuration(p, time.Microsecond) })
		}
	}
	offer(m.HostCPU, 52)
	offer(m.DPUCPU, 24)
	var host, dpu int
	m.Eng.Schedule(1, func() { host, dpu = m.HostCPU.InUse(), m.DPUCPU.InUse() })
	m.Eng.Run()
	if host != 52 || dpu != 24 {
		t.Fatalf("CPU pools run %d and %d at once, want 52 and 24", host, dpu)
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
