package world

import (
	"fmt"
	"time"

	"dpc/internal/fuse"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
	"dpc/internal/virtio"
)

// ---- echo transports: a host-DPU transport with a store behind it ----

// Store is what an echo transport's DPU-side handler serves from.
type Store int

const (
	// StoreRAM keeps each write in DPU RAM at no simulated cost, so the
	// transport alone is measured.
	StoreRAM Store = iota
	// StoreSSD puts the machine's simulated SSD behind the handler, which
	// makes ops media-bound.
	StoreSSD
	// StoreVirt is §4.1's DRAM "virtual client": it charges DPUVirtClient
	// per op, discards writes and reads back zeros, so measured latency is
	// the pure host-DPU round trip.
	StoreVirt
)

func echoStore(m *model.Machine, s Store) (put func(p *sim.Proc, off uint64, data []byte) error, get func(p *sim.Proc, off uint64, n int) ([]byte, error)) {
	switch s {
	case StoreSSD:
		dev := m.NewSSD()
		return func(p *sim.Proc, off uint64, data []byte) error { return dev.Write(p, int64(off), data) },
			func(p *sim.Proc, off uint64, n int) ([]byte, error) { return dev.Read(p, int64(off), n) }
	case StoreVirt:
		var zero []byte
		return func(p *sim.Proc, _ uint64, _ []byte) error {
				m.DPUExec(p, m.Cfg.Costs.DPUVirtClient)
				return nil
			},
			func(p *sim.Proc, _ uint64, n int) ([]byte, error) {
				m.DPUExec(p, m.Cfg.Costs.DPUVirtClient)
				if len(zero) < n {
					zero = make([]byte, n)
				}
				return zero[:n], nil
			}
	}
	ram := map[uint64][]byte{}
	return func(_ *sim.Proc, off uint64, data []byte) error {
			ram[off] = append(ram[off][:0], data...)
			return nil
		},
		func(_ *sim.Proc, off uint64, _ int) ([]byte, error) { return ram[off], nil }
}

// SmallIODMASetup is the per-descriptor DMA setup cost of the small-I/O
// transport: a DPU-class engine driven from ARM cores, where programming a
// descriptor and waiting for the engine costs microseconds — the paper's
// motivation for inlining small payloads at all. The testbed default (200 ns)
// models a host-NIC-class engine, under which the dma component is a rounding
// error on a small op and no inline/DMA tradeoff exists to measure.
const SmallIODMASetup = 1500 * time.Nanosecond

// SmallIO makes cfg's DMA engine DPU-class (SmallIODMASetup) and returns the
// small-I/O transport over it: one nvme-fs queue that inlines payloads up to
// inlineMax bytes.
func SmallIO(cfg *model.Config, inlineMax int) nvmefs.Config {
	cfg.PCIe.DMASetup = SmallIODMASetup
	return nvmefs.Config{Queues: 1, Depth: 64, SlotsPerQ: 32, MaxIO: 1 << 20, RHCap: 256, InlineMax: inlineMax}
}

// NewNvmeEcho builds a bare machine with an nvme-fs driver whose handler
// stores each write at its DW12 offset in store and reads it back.
func NewNvmeEcho(cfg model.Config, ncfg nvmefs.Config, store Store) (*model.Machine, *nvmefs.Driver) {
	m := model.NewMachine(cfg)
	put, get := echoStore(m, store)
	done := []byte{1} // the read status header, shared: the transport only reads it
	d := nvmefs.NewDriver(m, ncfg, func(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
		off := uint64(req.SQE.DW12)
		switch req.SQE.FileOp {
		case nvme.FileOpWrite:
			if put(p, off, req.Data) == nil {
				return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
			}
		case nvme.FileOpRead:
			if data, err := get(p, off, int(req.SQE.ReadLen)-ncfg.RHCap); err == nil {
				return nvmefs.Response{Status: nvme.StatusOK, Header: done, Data: data}
			}
		}
		return nvmefs.Response{Status: nvme.StatusInvalid}
	})
	return m, d
}

// EchoPair submits one write of payload then one read of the same length on
// queue 0 and returns the bytes read.
func EchoPair(p *sim.Proc, d *nvmefs.Driver, hdr, payload []byte) ([]byte, error) {
	w := d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: payload})
	if !w.OK() {
		return nil, fmt.Errorf("echo write: status %s", nvme.StatusString(w.Status))
	}
	r := d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: len(payload)})
	if !r.OK() {
		return nil, fmt.Errorf("echo read: status %s", nvme.StatusString(r.Status))
	}
	return r.Data, nil
}

// NewVirtioEcho is NewNvmeEcho over the virtio-fs (DPFS) transport.
func NewVirtioEcho(cfg model.Config, vcfg virtio.Config, store Store) (*model.Machine, *virtio.Transport) {
	m := model.NewMachine(cfg)
	put, get := echoStore(m, store)
	tr := virtio.NewTransport(m, vcfg, func(p *sim.Proc, req fuse.Request) fuse.Response {
		switch req.Header.Opcode {
		case fuse.OpWrite:
			if put(p, req.IO.Offset, req.Data) != nil {
				return fuse.Response{Error: -5}
			}
			return fuse.Response{}
		case fuse.OpRead:
			data, err := get(p, req.IO.Offset, int(req.IO.Size))
			if err != nil {
				return fuse.Response{Error: -5}
			}
			return fuse.Response{Data: data}
		}
		return fuse.Response{Error: -38}
	})
	return m, tr
}

// ---- the Figure 2(b)/4 walk: one write then one read on a bare machine ----

// Walk is the PCIe traffic of one walk, split at the write/read boundary.
type Walk struct {
	Write, Read []pcie.Event
}

// DMAs counts each phase's DMA operations (the doorbell MMIO is not one).
func (w Walk) DMAs() (write, read int64) {
	count := func(evs []pcie.Event) (n int64) {
		for _, ev := range evs {
			if ev.Op == pcie.OpDMA {
				n++
			}
		}
		return n
	}
	return count(w.Write), count(w.Read)
}

func walkMachine(o *obs.Obs) model.Config {
	cfg := model.Default()
	cfg.Obs = o
	return cfg
}

// runWalk runs write then read as one proc, recording the link's events.
func runWalk(m *model.Machine, name string, write, read func(p *sim.Proc) error) (w Walk, err error) {
	cur := &w.Write
	m.PCIe.Subscribe(func(ev pcie.Event) { *cur = append(*cur, ev) })
	m.Eng.Go(name, func(p *sim.Proc) {
		if err = write(p); err != nil {
			return
		}
		cur = &w.Read
		err = read(p)
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	return w, err
}

// NvmeWalk plays one size-byte write then read over nvme-fs. Each op runs
// under a root span so the submit span, the doorbell MMIO and the completion
// wait form a single tree: the critical-path walk can then substitute the
// DPU-side TGT/worker spans into the host's inflight wait, mirroring what
// virtio.write/read cover natively. o may be nil.
func NvmeWalk(o *obs.Obs, size int, store Store) (Walk, error) {
	m, d := NewNvmeEcho(walkMachine(o),
		nvmefs.Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 1 << 20, RHCap: 64}, store)
	hdr := make([]byte, 16)
	op := func(span string, sub nvmefs.Submission) func(p *sim.Proc) error {
		return func(p *sim.Proc) error {
			s := o.Begin(p, span)
			c := d.Submit(p, 0, sub)
			s.End(p)
			if !c.OK() {
				return fmt.Errorf("%s: status %s", span, nvme.StatusString(c.Status))
			}
			return nil
		}
	}
	return runWalk(m, "nvme-walk",
		op("nvmefs.op.write", nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: make([]byte, size)}),
		op("nvmefs.op.read", nvmefs.Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: size}))
}

// VirtioWalk plays the same write then read over virtio-fs; virtio.write /
// virtio.read already root the whole op.
func VirtioWalk(o *obs.Obs, size int, store Store) (Walk, error) {
	m, tr := NewVirtioEcho(walkMachine(o), virtio.Config{QueueSize: 256, Slots: 16, MaxIO: 1 << 20}, store)
	return runWalk(m, "virtio-walk",
		func(p *sim.Proc) error { return tr.Write(p, 1, 1, 0, make([]byte, size)) },
		func(p *sim.Proc) error { _, err := tr.Read(p, 1, 1, 0, size); return err })
}
