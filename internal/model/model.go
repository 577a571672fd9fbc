// Package model centralizes the simulated testbed configuration (the
// paper's Table 1) and the software-path cost constants used to calibrate
// the simulation. Every experiment builds its world from a model.Config.
// Costs holds the cycles the host and DPU software paths charge. The
// backends' own cycle costs live with their configurations: the DFS servers'
// in dfs.BackendConfig (MDSCycles, DSCycles), the KV storage nodes' in
// kv.ClusterConfig.ServerCycles, and the DPU-offloaded DFS client's in the
// dfs.CoreCosts that dpc.New sets. The what-if parameter cpu.cost_scale
// scales Costs only (Costs.ScaleCycles), never those.
package model

import (
	"fmt"
	"time"

	"dpc/internal/cpu"
	"dpc/internal/fabric"
	"dpc/internal/mem"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
	"dpc/internal/ssd"
)

// Costs holds per-operation software costs, charged in CPU cycles to the
// pool executing the code path. Cycle counts are calibrated so the
// single-thread latencies land near the paper's reported points.
type Costs struct {
	// Host kernel / fs-adapter path (nvme-fs).
	HostSyscall     int64 // VFS entry/exit, fd lookup
	HostSubmit      int64 // fs-adapter request conversion + SQE build
	HostComplete    int64 // CQ reap, wakeup, copyout
	HostCacheLookup int64 // hybrid-cache hash probe on the host
	HostCopyPerPage int64 // memcpy of one 4 KB page

	// Host FUSE path (virtio-fs baseline). FUSE requests take the bloated
	// queue path the paper complains about.
	HostFUSEEncode int64
	HostFUSEQueue  int64

	// DPU-side costs.
	DPUCmdParse   int64 // NVME-TGT SQE parse + dispatch
	DPUVirtClient int64 // in-memory virtual client respond (§4.1 setup)
	DPUHALProcess int64 // DPFS-HAL virtio descriptor walk bookkeeping
	DPUKVFSOp     int64 // KVFS request handling (excl. KV backend time)
	DPUCacheCtl   int64 // cache control-plane decision
	DPUFlushPage  int64 // per-page flush handling

	// Polling/notification latencies.
	TGTPollDelay  time.Duration // DPU notices a new SQE after doorbell
	HostIRQDelay  time.Duration // host notices a new CQE
	HALPollDelay  time.Duration // DPFS-HAL thread notices virtio avail
	FlushInterval time.Duration // hybrid-cache flush daemon period
}

// ScaleCycles multiplies every per-operation cycle cost by f, rounding to
// nearest and flooring at 1 cycle. The Duration fields (polling and wakeup
// latencies) are left alone: they model notification plumbing, not compute,
// and what-if sweeps dial them separately if at all. f == 1 returns c
// unchanged, bit for bit.
func (c Costs) ScaleCycles(f float64) Costs {
	if f == 1 {
		return c
	}
	s := func(v *int64) {
		if *v <= 0 {
			return
		}
		n := int64(float64(*v)*f + 0.5)
		if n < 1 {
			n = 1
		}
		*v = n
	}
	s(&c.HostSyscall)
	s(&c.HostSubmit)
	s(&c.HostComplete)
	s(&c.HostCacheLookup)
	s(&c.HostCopyPerPage)
	s(&c.HostFUSEEncode)
	s(&c.HostFUSEQueue)
	s(&c.DPUCmdParse)
	s(&c.DPUVirtClient)
	s(&c.DPUHALProcess)
	s(&c.DPUKVFSOp)
	s(&c.DPUCacheCtl)
	s(&c.DPUFlushPage)
	return c
}

// Config describes the whole simulated testbed.
//
//dpclint:params
type Config struct {
	Seed int64

	// Host: Intel Xeon Gold 6230R, 26 physical cores / 52 threads, 2.1 GHz.
	HostCores  int
	HostFreqHz int64

	// DPU: Huawei QingTian, 24 TaiShan cores @ 2.0 GHz, 32 GB DRAM.
	DPUCores  int
	DPUFreqHz int64
	// DPUSwitch is the scheduling overhead per op once the DPU run queue
	// is oversubscribed (the paper's >32-thread degradation).
	DPUSwitch time.Duration
	// HostSwitch is the same for host threads.
	HostSwitch time.Duration

	PCIe pcie.Config
	SSD  ssd.Config
	Net  fabric.Config

	// HostMemMB and DPUMemMB are the modelled DRAM capacities the host and
	// DPU arenas may not exceed. An arena holds only what the world's
	// components reserve in it (rings, slabs, the hybrid cache), so neither
	// sizes an allocation; DPU DRAM being bounded is what motivates the
	// hybrid cache.
	HostMemMB int
	DPUMemMB  int

	// Obs, when non-nil, enables cross-layer observability: CPU pools,
	// the PCIe link and every component built on this machine register
	// their metrics and spans with it. Nil (the default) keeps all
	// instrumented hot paths allocation-free no-ops.
	Obs *obs.Obs

	Costs Costs
}

// Default returns the Table 1 testbed with calibrated cost constants.
func Default() Config {
	return Config{
		Seed:       1,
		HostCores:  52,
		HostFreqHz: 2_100_000_000,
		DPUCores:   24,
		DPUFreqHz:  2_000_000_000,
		DPUSwitch:  2 * time.Microsecond,
		HostSwitch: 1 * time.Microsecond,
		PCIe:       pcie.DefaultConfig(),
		SSD:        ssd.DefaultConfig(),
		Net:        fabric.DefaultConfig(),
		// Table 1's DPU has 32 GB of DRAM. The host bound only has to sit
		// above every world's reservations: arenas hold what is reserved.
		HostMemMB: 4096,
		DPUMemMB:  32 * 1024,
		Costs: Costs{
			HostSyscall:     5000,
			HostSubmit:      1800,
			HostComplete:    9000,
			HostCacheLookup: 700,
			HostCopyPerPage: 600,

			HostFUSEEncode: 12000,
			HostFUSEQueue:  8000,

			DPUCmdParse:   5000,
			DPUVirtClient: 1000,
			DPUHALProcess: 4500,
			DPUKVFSOp:     60000,
			DPUCacheCtl:   1400,
			DPUFlushPage:  2500,

			TGTPollDelay:  3 * time.Microsecond,
			HostIRQDelay:  2500 * time.Nanosecond,
			HALPollDelay:  6 * time.Microsecond,
			FlushInterval: 2 * time.Millisecond,
		},
	}
}

// Machine is an assembled application server: host CPU, DPU, the PCIe link
// between them, a host memory arena and the datacenter network.
type Machine struct {
	Cfg     Config
	Eng     *sim.Engine
	HostCPU *cpu.Pool
	DPUCPU  *cpu.Pool
	PCIe    *pcie.Link
	HostMem *mem.Region
	DPUMem  *mem.Region
	Net     *fabric.Network
	// HostNode and DPUNode are the machine's network endpoints. In the
	// diskless architecture only the DPU talks to disaggregated storage;
	// host-side baseline clients use HostNode.
	HostNode *fabric.Node
	DPUNode  *fabric.Node

	// Obs is the machine's observability hub (nil when disabled).
	// Components built on the machine read it at construction time.
	Obs *obs.Obs
}

// NewMachine assembles a machine from the config.
func NewMachine(cfg Config) *Machine {
	eng := sim.NewEngine(cfg.Seed)
	hostCPU := cpu.NewPool(eng, "host-cpu", cfg.HostCores, cfg.HostFreqHz)
	hostCPU.SwitchOverhead = cfg.HostSwitch
	dpuCPU := cpu.NewPool(eng, "dpu-cpu", cfg.DPUCores, cfg.DPUFreqHz)
	dpuCPU.SwitchOverhead = cfg.DPUSwitch
	net := fabric.NewNetwork(eng, cfg.Net)
	m := &Machine{
		Cfg:      cfg,
		Eng:      eng,
		HostCPU:  hostCPU,
		DPUCPU:   dpuCPU,
		PCIe:     pcie.NewLink(eng, cfg.PCIe),
		HostMem:  mem.NewArena("host-dram", 0x1000_0000, cfg.HostMemMB<<20),
		DPUMem:   mem.NewArena("dpu-dram", 0x8_0000_0000, cfg.DPUMemMB<<20),
		Net:      net,
		HostNode: net.NewNode("host"),
		DPUNode:  net.NewNode("dpu"),
	}
	m.AttachObs(cfg.Obs)
	return m
}

// AttachObs enables observability on an assembled machine: the CPU pools
// and the PCIe link publish their counters, and a link subscriber attaches
// every PCIe operation as an annotation to the span it serves. Must
// be called before dependent components (drivers, caches, services) are
// built, since they cache m.Obs at construction.
func (m *Machine) AttachObs(o *obs.Obs) {
	if !o.Enabled() || m.Obs != nil {
		return
	}
	m.Obs = o
	m.HostCPU.AttachObs(o)
	m.DPUCPU.AttachObs(o)
	m.PCIe.AttachObs(o)
	m.PCIe.Subscribe(func(ev pcie.Event) {
		if ev.Proc == nil {
			o.AnnotateSpan(ev.Span, ev.At, annotPrefix[ev.Op]+ev.Label, int64(ev.Bytes))
			return
		}
		o.Annotate(ev.Proc, annotPrefix[ev.Op]+ev.Label, int64(ev.Bytes))
	})
}

// annotPrefix is the span-annotation prefix of each PCIe operation kind.
var annotPrefix = [...]string{pcie.OpDMA: "dma:", pcie.OpMMIO: "mmio:", pcie.OpAtomic: "atomic:", pcie.OpPIO: "pio:"}

// AllocHost reserves size bytes of host memory, aligned to align (a power of
// two), and returns its address. Panics past HostMemMB.
func (m *Machine) AllocHost(size int, align int) mem.Addr { return m.HostMem.Alloc(size, align) }

// AllocDPU reserves size bytes of DPU DRAM. Panics past DPUMemMB.
func (m *Machine) AllocDPU(size int, align int) mem.Addr { return m.DPUMem.Alloc(size, align) }

// NewSSD attaches a local NVMe SSD to the machine (the Ext4 baseline's disk).
func (m *Machine) NewSSD() *ssd.Device {
	dev := ssd.New(m.Eng, m.Cfg.SSD)
	dev.AttachObs(m.Obs)
	return dev
}

// HostExec charges cycles to the host CPU.
func (m *Machine) HostExec(p *sim.Proc, cycles int64) { m.HostCPU.Exec(p, cycles) }

// DPUExec charges cycles to the DPU CPU.
func (m *Machine) DPUExec(p *sim.Proc, cycles int64) { m.DPUCPU.Exec(p, cycles) }

// EnvString renders the testbed like the paper's Table 1.
func (c Config) EnvString() string {
	return fmt.Sprintf(`Component | Description
----------+------------------------------------------------------------
CPU       | simulated host, %d hardware threads @ %.1f GHz
Memory    | simulated host DRAM, %d MB capacity, allocated as reserved
DPU       | simulated QingTian-class DPU, %d cores @ %.1f GHz, %d MB DRAM
PCIe      | %.1f GB/s payload, %v DMA setup, %d engines
NVMe SSD  | %v read / %v write, %.1f/%.1f GB/s, %d channels
Network   | %.1f GB/s NIC, %v one-way delay
`,
		c.HostCores, float64(c.HostFreqHz)/1e9,
		c.HostMemMB,
		c.DPUCores, float64(c.DPUFreqHz)/1e9, c.DPUMemMB,
		float64(c.PCIe.BandwidthBps)/1e9, c.PCIe.DMASetup, c.PCIe.Engines,
		c.SSD.ReadLatency, c.SSD.WriteLatency,
		float64(c.SSD.ReadBps)/1e9, float64(c.SSD.WriteBps)/1e9, c.SSD.Channels,
		float64(c.Net.NICBps)/1e9, c.Net.PropDelay)
}
