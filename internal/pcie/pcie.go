// Package pcie models the host–DPU PCIe interconnect.
//
// The paper's central protocol argument is about DMA operations: an 8 KB
// write costs 11 DMAs under virtio-fs but only 4 under nvme-fs. This package
// therefore makes every DMA explicit and observable: each transfer pays a
// fixed per-DMA setup cost plus payload time over a shared bandwidth pipe,
// and counters/trace hooks record every operation so tests can assert exact
// DMA counts and experiments can report PCIe traffic. The engines and the
// pipe are clocks, not queues: a DMA's end is computed when it is issued and
// its issuer sleeps once, until then.
//
// MMIO doorbells and PCIe atomics (used by the hybrid cache's lock words)
// are modeled as separate, cheaper operations.
package pcie

import (
	"fmt"
	"time"

	"dpc/internal/fault"
	"dpc/internal/mem"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Dir is the direction of a transfer, named from the host's perspective.
type Dir int

const (
	// HostToDev: the DPU reads host memory (DMA read upstream).
	HostToDev Dir = iota
	// DevToHost: the DPU writes host memory.
	DevToHost
)

func (d Dir) String() string {
	if d == HostToDev {
		return "host->dev"
	}
	return "dev->host"
}

// Op is the kind of PCIe operation, for tracing.
type Op int

const (
	OpDMA Op = iota
	OpMMIO
	OpAtomic
	// OpPIO is a programmed-I/O burst: the host CPU pushes payload bytes
	// through write-combined posted writes into device memory (the inline
	// small-I/O staging path), paying per-byte CPU/link time instead of a
	// per-transfer DMA setup.
	OpPIO
)

func (o Op) String() string {
	switch o {
	case OpDMA:
		return "DMA"
	case OpMMIO:
		return "MMIO"
	case OpAtomic:
		return "ATOMIC"
	case OpPIO:
		return "PIO"
	default:
		return "UNKNOWN"
	}
}

// Event describes one PCIe operation for trace consumers. Proc is the sim
// process that issued the operation, letting subscribers attribute traffic
// to the request being served (the model's annotator attaches DMA events to
// the process's current span); from event context, Span names the span.
type Event struct {
	At    sim.Time
	Op    Op
	Dir   Dir
	Addr  mem.Addr
	Bytes int
	Label string
	Proc  *sim.Proc
	Span  obs.Span
}

// Config holds the link's cost model.
//
//dpclint:params
type Config struct {
	// BandwidthBps is effective payload bandwidth (PCIe 3.0 x16 ≈ 15.75 GB/s
	// raw; ~14.5 GB/s effective after TLP overhead).
	BandwidthBps int64
	// DMASetup is the fixed latency per DMA descriptor (engine programming,
	// TLP round trip).
	DMASetup time.Duration
	// MMIOLatency is the posted-write cost of a doorbell.
	MMIOLatency time.Duration
	// AtomicLatency is the round-trip cost of a PCIe atomic (CAS/FAA).
	AtomicLatency time.Duration
	// Engines is the number of concurrent DMA engines.
	Engines int
	// PIOBandwidthBps is the effective rate of host programmed I/O into
	// device BAR memory via write-combined posted writes. Far below DMA
	// bandwidth (the CPU issues the stores and WC buffers flush in 64 B
	// lines), which is exactly why inline transfer only wins for small
	// payloads: PIO avoids the per-transfer DMA setup but pays more per
	// byte. Zero selects the default.
	PIOBandwidthBps int64
}

// DefaultConfig models PCIe 3.0 x16, matching the paper's testbed (Table 1).
func DefaultConfig() Config {
	return Config{
		BandwidthBps:    14_500_000_000,
		DMASetup:        200 * time.Nanosecond,
		MMIOLatency:     250 * time.Nanosecond,
		AtomicLatency:   550 * time.Nanosecond,
		Engines:         16,
		PIOBandwidthBps: 2_500_000_000,
	}
}

// Link is a host–DPU PCIe connection.
type Link struct {
	eng *sim.Engine
	cfg Config
	// engines books the DMA engines, and pipeFree holds the instant the
	// shared payload pipe finishes its last booked transfer.
	engines  *sim.Servers
	pipeFree sim.Time

	// Counters, published as pcie.link.* by AttachObs (the PIO pair on the
	// first PIO, so runs that never use the inline path keep their key set).
	DMAs        stats.Counter
	DMABytesH2D stats.Counter
	DMABytesD2H stats.Counter
	MMIOs       stats.Counter
	Atomics     stats.Counter
	PIOs        stats.Counter
	PIOBytes    stats.Counter
	// Stalls counts injected DMA latency spikes (fault runs only).
	Stalls stats.Counter

	// faults is consulted on every DMA; nil means no injection.
	faults *fault.Injector

	// o is the hub the counters are published to (nil when disabled). Every
	// DMA setup and payload serialization records a CompDMA interval on it,
	// MMIO/atomics record CompMMIO, and waiting for an engine or the shared
	// pipe records CompWait on the issuing process's innermost span.
	o *obs.Obs

	// subs receives every PCIe operation, in subscription order. Multiple
	// consumers coexist: dpcbench -walk's printer and the model's span
	// annotator can both watch the same link.
	subs []func(Event)
}

// Subscribe registers fn to receive every PCIe operation. Subscribers fire in
// subscription order.
func (l *Link) Subscribe(fn func(Event)) { l.subs = append(l.subs, fn) }

// emit fans an event out to every subscriber. Callers must skip the Event
// construction entirely when nobody subscribed, keeping the untraced hot
// path allocation-free.
func (l *Link) emit(ev Event) {
	for _, fn := range l.subs {
		fn(ev)
	}
}

// NewLink creates a link with the given cost model.
func NewLink(eng *sim.Engine, cfg Config) *Link {
	if cfg.BandwidthBps <= 0 || cfg.Engines <= 0 {
		panic(fmt.Sprintf("pcie: bad config %+v", cfg))
	}
	if cfg.PIOBandwidthBps <= 0 {
		cfg.PIOBandwidthBps = DefaultConfig().PIOBandwidthBps
	}
	return &Link{eng: eng, cfg: cfg, engines: sim.NewServers(cfg.Engines)}
}

// Config returns the link's cost model.
func (l *Link) Config() Config { return l.cfg }

// AttachObs publishes the link's counters and turns on per-operation latency
// attribution.
func (l *Link) AttachObs(o *obs.Obs) {
	l.o = o
	o.Publish("pcie.link.dmas", l.DMAs.Loc())
	o.Publish("pcie.link.dma_bytes_h2d", l.DMABytesH2D.Loc())
	o.Publish("pcie.link.dma_bytes_d2h", l.DMABytesD2H.Loc())
	o.Publish("pcie.link.mmios", l.MMIOs.Loc())
	o.Publish("pcie.link.atomics", l.Atomics.Loc())
}

// payloadTime returns the serialization time of n bytes on the link.
func (l *Link) payloadTime(n int) time.Duration {
	return time.Duration(int64(n) * int64(time.Second) / l.cfg.BandwidthBps)
}

// SetFaults attaches a fault injector to the DMA path.
func (l *Link) SetFaults(in *fault.Injector) { l.faults = in }

// DMA is one transfer Book has booked, with its instants.
type DMA struct {
	Addr                                mem.Addr
	Bytes                               int
	End                                 sim.Time // the instant the last byte lands
	dir                                 Dir
	label                               string
	issued, grant, setup, arrive, start sim.Time
}

// dma charges one DMA: Book, a sleep until its end, and Done's report.
func (l *Link) dma(p *sim.Proc, dir Dir, addr mem.Addr, n int, label string) {
	b := l.Book(dir, addr, n, label)
	p.SleepUntil(b.End)
	l.publish(b, p, l.o.Current(p))
}

// Book books one DMA of n bytes issued now; the issuer resumes at its End
// and calls Done. The transfer takes the engine that frees first, pays its
// setup, then waits for the pipe and serializes its payload, all known at
// issue: exactly the FIFO engine pool and FIFO pipe, since the setup is a
// constant. An injected KindPCIeStall holds the transfer for the rule's
// delay before its setup, on its engine (replay/retrain hiccups); its pipe
// slot is booked at issue like any other, so later DMAs queue behind it.
func (l *Link) Book(dir Dir, addr mem.Addr, n int, label string) DMA {
	kind, delay, injected := l.faults.At(fault.SitePCIeDMA)
	b := DMA{Addr: addr, Bytes: n, dir: dir, label: label, issued: l.eng.Now()}
	b.grant = l.engines.Grant(b.issued)
	b.setup = b.grant
	if injected && kind == fault.KindPCIeStall {
		l.Stalls.Inc()
		b.setup += sim.Time(delay)
	}
	b.arrive = b.setup + sim.Time(l.cfg.DMASetup)
	b.start = max(b.arrive, l.pipeFree)
	b.End = b.start + sim.Time(l.payloadTime(n))
	l.engines.Book(b.grant, b.End)
	l.pipeFree = b.End
	return b
}

// Done counts and reports a DMA booked from event context at its End,
// attributed to span s, so a sampler never counts a transfer not ended.
func (l *Link) Done(b DMA, s obs.Span) { l.publish(b, nil, s) }

// publish counts an ended DMA and reports it; p is its issuer, if a process.
func (l *Link) publish(b DMA, p *sim.Proc, s obs.Span) {
	if o := l.o; o != nil {
		o.AttrSpan(s, obs.CompWait, "pcie.engine", b.issued, b.grant)
		o.AttrSpan(s, obs.CompWait, "pcie.stall", b.grant, b.setup)
		o.AttrSpan(s, obs.CompDMA, b.label, b.setup, b.arrive)
		o.AttrSpan(s, obs.CompWait, "pcie.arb", b.arrive, b.start)
		o.AttrSpan(s, obs.CompDMA, b.label, b.start, b.End)
	}

	l.DMAs.Inc()
	if b.dir == HostToDev {
		l.DMABytesH2D.Add(int64(b.Bytes))
	} else {
		l.DMABytesD2H.Add(int64(b.Bytes))
	}
	if len(l.subs) > 0 {
		l.emit(Event{At: l.eng.Now(), Op: OpDMA, Dir: b.dir, Addr: b.Addr, Bytes: b.Bytes, Label: b.label, Proc: p, Span: s})
	}
}

// DMARead performs one DMA in which the device reads n bytes of host memory
// at addr, returning a private copy. label annotates the trace. It is the
// allocate-and-copy convenience for cold callers; the data paths use
// DMAReadView or DMAReadInto (DESIGN.md "Buffer ownership on the PCIe path").
func (l *Link) DMARead(p *sim.Proc, r *mem.Region, addr mem.Addr, n int, label string) []byte {
	l.dma(p, HostToDev, addr, n, label)
	return r.Read(addr, n)
}

// DMAReadView is DMARead without the copy: the DMA is charged identically and
// the region's own bytes are returned in place. The view is valid only until
// p next parks (any Sleep, Wait, Acquire or further PCIe operation): once p
// yields, the other side may rewrite the memory under it. A caller that
// decodes before parking observes exactly the bytes DMARead would have
// copied, because DMARead copies at this same instant. The caller must not
// write through the view.
func (l *Link) DMAReadView(p *sim.Proc, r *mem.Region, addr mem.Addr, n int, label string) []byte {
	l.dma(p, HostToDev, addr, n, label)
	return r.Slice(addr, n)
}

// DMAReadInto is DMARead into a caller-owned buffer, for bytes that must
// outlive the issuer's next park.
func (l *Link) DMAReadInto(p *sim.Proc, dst []byte, r *mem.Region, addr mem.Addr, label string) {
	l.dma(p, HostToDev, addr, len(dst), label)
	copy(dst, r.Slice(addr, len(dst)))
}

// DMAWrite performs one DMA in which the device writes src into host memory.
func (l *Link) DMAWrite(p *sim.Proc, r *mem.Region, addr mem.Addr, src []byte, label string) {
	l.dma(p, DevToHost, addr, len(src), label)
	r.Write(addr, src)
}

// MMIOWrite32 is a posted 32-bit write (doorbell) from host to device
// register space backed by r.
func (l *Link) MMIOWrite32(p *sim.Proc, r *mem.Region, addr mem.Addr, v uint32, label string) {
	l.o.Sleep(p, l.cfg.MMIOLatency, obs.CompMMIO, label)
	r.PutUint32(addr, v)
	l.MMIOs.Inc()
	if len(l.subs) > 0 {
		l.emit(Event{At: l.eng.Now(), Op: OpMMIO, Dir: HostToDev, Addr: addr, Bytes: 4, Label: label, Proc: p})
	}
}

// PIOWrite is a programmed-I/O burst: the host CPU stores src into device
// memory at addr through a write-combined mapping. Cost is one posted-write
// latency to open the burst plus per-byte serialization at the (slow) PIO
// rate — no DMA engine, no setup cost, no shared-pipe arbitration. The
// stores are posted, so the issuing process does not wait for a device-side
// acknowledgement beyond the modeled serialization. This is the staging
// primitive for the inline small-I/O window.
func (l *Link) PIOWrite(p *sim.Proc, r *mem.Region, addr mem.Addr, src []byte, label string) {
	n := len(src)
	d := l.cfg.MMIOLatency + time.Duration(int64(n)*int64(time.Second)/l.cfg.PIOBandwidthBps)
	l.o.Sleep(p, d, obs.CompMMIO, label)
	r.Write(addr, src)
	if l.PIOs.Total() == 0 {
		l.o.Publish("pcie.link.pios", l.PIOs.Loc())
		l.o.Publish("pcie.link.pio_bytes", l.PIOBytes.Loc())
	}
	l.PIOs.Inc()
	l.PIOBytes.Add(int64(n))
	if len(l.subs) > 0 {
		l.emit(Event{At: l.eng.Now(), Op: OpPIO, Dir: HostToDev, Addr: addr, Bytes: n, Label: label, Proc: p})
	}
}

// AtomicCAS32 is a PCIe atomic compare-and-swap on host memory, issued by
// the device (the hybrid cache's DPU-side lock operations).
func (l *Link) AtomicCAS32(p *sim.Proc, r *mem.Region, addr mem.Addr, old, new uint32, label string) bool {
	l.o.Sleep(p, l.cfg.AtomicLatency, obs.CompMMIO, label)
	l.Atomics.Inc()
	if len(l.subs) > 0 {
		l.emit(Event{At: l.eng.Now(), Op: OpAtomic, Dir: HostToDev, Addr: addr, Bytes: 4, Label: label, Proc: p})
	}
	return r.CompareAndSwap32(addr, old, new)
}

// AtomicStore32 is a PCIe atomic store (release a lock word).
func (l *Link) AtomicStore32(p *sim.Proc, r *mem.Region, addr mem.Addr, v uint32, label string) {
	l.o.Sleep(p, l.cfg.AtomicLatency, obs.CompMMIO, label)
	l.Atomics.Inc()
	if len(l.subs) > 0 {
		l.emit(Event{At: l.eng.Now(), Op: OpAtomic, Dir: HostToDev, Addr: addr, Bytes: 4, Label: label, Proc: p})
	}
	r.PutUint32(addr, v)
}

// AtomicFetchAdd32 is a PCIe atomic fetch-and-add on host memory.
func (l *Link) AtomicFetchAdd32(p *sim.Proc, r *mem.Region, addr mem.Addr, delta uint32, label string) uint32 {
	l.o.Sleep(p, l.cfg.AtomicLatency, obs.CompMMIO, label)
	l.Atomics.Inc()
	if len(l.subs) > 0 {
		l.emit(Event{At: l.eng.Now(), Op: OpAtomic, Dir: HostToDev, Addr: addr, Bytes: 4, Label: label, Proc: p})
	}
	return r.FetchAdd32(addr, delta)
}

// Mark begins a traffic measurement window on all counters.
func (l *Link) Mark() {
	l.DMAs.Mark()
	l.DMABytesH2D.Mark()
	l.DMABytesD2H.Mark()
	l.MMIOs.Mark()
	l.Atomics.Mark()
	l.PIOs.Mark()
	l.PIOBytes.Mark()
}
