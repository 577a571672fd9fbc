package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	dpcroot "dpc"
	"dpc/internal/cpu"
	"dpc/internal/fuse"
	"dpc/internal/localfs"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/virtio"
	"dpc/internal/workload"
)

// The reference worlds: every fixed set-up the paper's evaluation (and so a
// committed artifact, a figure table or a cmd/ tool) measures is built here
// and nowhere else. A difference between two uses that an artifact can see
// — RAM or SSD behind the handler, machine or driver sizing, file count and
// size — is an argument of the one constructor, never a second constructor.

// ---- echo transports: a host-DPU transport with a store behind it ----

// echoStore is what an echo transport's DPU-side handler serves from: DPU
// RAM, which costs no simulated time so the transport alone is measured, or
// the machine's simulated SSD, which makes ops media-bound.
func echoStore(m *model.Machine, onSSD bool) (put func(p *sim.Proc, off uint64, data []byte) error, get func(p *sim.Proc, off uint64, n int) ([]byte, error)) {
	if onSSD {
		dev := m.NewSSD()
		return func(p *sim.Proc, off uint64, data []byte) error { return dev.Write(p, int64(off), data) },
			func(p *sim.Proc, off uint64, n int) ([]byte, error) { return dev.Read(p, int64(off), n) }
	}
	ram := map[uint64][]byte{}
	return func(_ *sim.Proc, off uint64, data []byte) error {
			ram[off] = append(ram[off][:0], data...)
			return nil
		},
		func(_ *sim.Proc, off uint64, _ int) ([]byte, error) { return ram[off], nil }
}

// NewNvmeEcho builds a bare machine with an nvme-fs driver whose handler
// stores each write at its DW12 offset and reads it back.
func NewNvmeEcho(cfg model.Config, ncfg nvmefs.Config, onSSD bool) (*model.Machine, *nvmefs.Driver) {
	m := model.NewMachine(cfg)
	put, get := echoStore(m, onSSD)
	d := nvmefs.NewDriver(m, ncfg, func(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
		off := uint64(req.SQE.DW12)
		switch req.SQE.FileOp {
		case nvme.FileOpWrite:
			if put(p, off, req.Data) == nil {
				return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
			}
		case nvme.FileOpRead:
			if data, err := get(p, off, int(req.SQE.ReadLen)-ncfg.RHCap); err == nil {
				return nvmefs.Response{Status: nvme.StatusOK, Header: []byte{1}, Data: data}
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

// newVirtioEcho is NewNvmeEcho over the virtio-fs (DPFS) transport.
func newVirtioEcho(cfg model.Config, vcfg virtio.Config, onSSD bool) (*model.Machine, *virtio.Transport) {
	m := model.NewMachine(cfg)
	put, get := echoStore(m, onSSD)
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
func NvmeWalk(o *obs.Obs, size int, onSSD bool) (Walk, error) {
	m, d := NewNvmeEcho(walkMachine(o),
		nvmefs.Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 1 << 20, RHCap: 64}, onSSD)
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
func VirtioWalk(o *obs.Obs, size int, onSSD bool) (Walk, error) {
	m, tr := newVirtioEcho(walkMachine(o), virtio.Config{QueueSize: 256, Slots: 16, MaxIO: 1 << 20}, onSSD)
	return runWalk(m, "virtio-walk",
		func(p *sim.Proc) error { return tr.Write(p, 1, 1, 0, make([]byte, size)) },
		func(p *sim.Proc) error { _, err := tr.Read(p, 1, 1, 0, size); return err })
}

// ---- the cached reference mix ----

// CachedMix runs the buffered KVFS reference mix on a full system: one
// warm-up write pass populating the hybrid cache, two read passes that
// mostly hit, an fsync through the flush path, then a direct write whose
// buffered read-back misses so the DPU fills pages. Returns the final
// virtual time.
func CachedMix(o *obs.Obs) (sim.Time, error) {
	opts := dpcroot.DefaultOptions()
	opts.Model.Obs = o
	sys := dpcroot.New(opts)
	cl := sys.KVFSClient()
	payload := make([]byte, 256*1024)
	rand.New(rand.NewSource(42)).Read(payload)
	dst := make([]byte, len(payload))
	mix := func(p *sim.Proc) error {
		f, err := cl.Create(p, 0, "/bench.dat")
		if err != nil {
			return err
		}
		if err := f.Write(p, 0, 0, payload, false); err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := f.ReadInto(p, 0, 0, dst, false); err != nil {
				return err
			}
		}
		if err := f.Sync(p, 0); err != nil {
			return err
		}
		f2, err := cl.Create(p, 0, "/cold.dat")
		if err != nil {
			return err
		}
		if err := f2.Write(p, 0, 0, payload, true); err != nil {
			return err
		}
		_, err = f2.ReadInto(p, 0, 0, dst, false)
		return err
	}
	var err error
	sys.Go(func(p *sim.Proc) { err = mix(p) })
	sys.RunFor(time.Second)
	now := sys.Now()
	sys.Shutdown()
	if err != nil {
		return now, fmt.Errorf("cached mix: %w", err)
	}
	return now, nil
}

// ---- the fsync reference workload ----

// FsyncWriters runs workers concurrent writers to completion on a system
// with a hybrid cache: each creates its own file (name plus its index) and
// does rounds rounds of one buffered burst-byte write then sync, which
// performs the fsync — wrapped in whatever span or timer the caller
// measures with. Returns the fsyncs completed and the last writer's finish
// time: group commit amortizes barriers across writers, so per-writer
// timing would hide exactly that effect.
func FsyncWriters(sys *dpcroot.System, workers, rounds, burst int, name string, sync func(p *sim.Proc, f *dpcroot.File) error) (fsyncs int64, last sim.Time, err error) {
	writer := func(p *sim.Proc, w int) error {
		f, err := sys.KVFSClient().Create(p, 0, fmt.Sprintf("%s%d", name, w))
		if err != nil {
			return err
		}
		buf := make([]byte, burst)
		for i := range buf {
			buf[i] = byte(i*31 + w)
		}
		for r := 0; r < rounds; r++ {
			if err := f.Write(p, 0, uint64(r*burst), buf, false); err != nil {
				return err
			}
			if err := sync(p, f); err != nil {
				return err
			}
			fsyncs++
		}
		last = max(last, p.Now())
		return nil
	}
	errs := make([]error, workers)
	procs := make([]func(p *sim.Proc), workers)
	for w := range procs {
		procs[w] = func(p *sim.Proc) { errs[w] = writer(p, w) }
	}
	sys.Drive(procs...)
	return fsyncs, last, errors.Join(errs...)
}

// ---- pre-filled worlds: a stack with big files written before measuring ----

// prefillChunk is the direct-write size every world is filled with.
const prefillChunk = 1 << 20

// bigFileName names the big files of the worlds whose behaviour does not
// depend on it (the DFS worlds' does: see dfsClientWorld.setup).
const bigFileName = "/big%d"

// dpcWorld is a DPC system under test — standalone KVFS, or the offloaded
// DFS client when the options enable it instead.
type dpcWorld struct {
	sys   *dpcroot.System
	cl    *dpcroot.Client
	files []*dpcroot.File
}

// newDPCWorld assembles a system from the default options as changed by
// mutate.
func newDPCWorld(mutate func(*dpcroot.Options)) *dpcWorld {
	opts := dpcroot.DefaultOptions()
	mutate(&opts)
	w := &dpcWorld{sys: dpcroot.New(opts)}
	if opts.EnableKVFS {
		w.cl = w.sys.KVFSClient()
	} else {
		w.cl = w.sys.DFSClient()
	}
	return w
}

// prefill writes files big files of fileSize bytes each and settles the
// world for a minute of virtual time.
func (w *dpcWorld) prefill(files int, fileSize uint64) *dpcWorld {
	w.sys.Go(func(p *sim.Proc) {
		chunk := make([]byte, prefillChunk)
		for i := 0; i < files; i++ {
			f, err := w.cl.Create(p, 0, fmt.Sprintf(bigFileName, i))
			if err != nil {
				panic(err)
			}
			for off := uint64(0); off < fileSize; off += prefillChunk {
				if err := f.Write(p, 0, off, chunk, true); err != nil {
					panic(err)
				}
			}
			w.files = append(w.files, f)
		}
	})
	w.sys.RunFor(time.Minute)
	return w
}

// newKVFSWorld is the standalone-experiment KVFS world with a hybrid cache
// of cachePages pages (0: none).
func newKVFSWorld(cachePages int) *dpcWorld {
	return newDPCWorld(func(o *dpcroot.Options) { o.CachePages = cachePages }).prefill(saFiles, saFileSize)
}

func (w *dpcWorld) do(direct bool) workload.Do {
	bufs := readBufs{}
	return func(p *sim.Proc, tid int, a workload.Access) error {
		f := w.files[tid%len(w.files)]
		if a.Kind == workload.Write {
			return f.Write(p, tid, a.Off, make([]byte, a.Size), direct)
		}
		_, err := f.ReadInto(p, tid, a.Off, bufs.get(tid, a.Size), direct)
		return err
	}
}

func (w *dpcWorld) stop() { w.sys.StopDaemons(); w.sys.Shutdown() }

// ext4World is the local-Ext4 baseline under test.
type ext4World struct {
	m    *model.Machine
	fs   *localfs.FS
	inos []uint64
}

func newExt4World(files int, fileSize uint64) *ext4World {
	cfg := model.Default()
	m := model.NewMachine(cfg)
	fs := localfs.New(m, ssd.New(m.Eng, cfg.SSD), localfs.DefaultConfig())
	w := &ext4World{m: m, fs: fs}
	m.Eng.Go("setup", func(p *sim.Proc) {
		chunk := make([]byte, prefillChunk)
		for i := 0; i < files; i++ {
			ino, err := fs.Create(p, fmt.Sprintf(bigFileName, i))
			if err != nil {
				panic(err)
			}
			for off := uint64(0); off < fileSize; off += prefillChunk {
				if err := fs.Write(p, ino, off, chunk, true); err != nil {
					panic(err)
				}
			}
			w.inos = append(w.inos, ino)
		}
	})
	m.Eng.Run()
	return w
}

func (w *ext4World) do(direct bool) workload.Do {
	return func(p *sim.Proc, tid int, a workload.Access) error {
		ino := w.inos[tid%len(w.inos)]
		if a.Kind == workload.Write {
			return w.fs.Write(p, ino, a.Off, make([]byte, a.Size), direct)
		}
		_, err := w.fs.Read(p, ino, a.Off, a.Size, direct)
		return err
	}
}

// Stack is a pre-filled world behind the closed-loop driver's surface, for
// ad-hoc runs outside the fixed paper sweeps (cmd/dpcfio).
type Stack struct {
	Eng     *sim.Engine
	HostCPU *cpu.Pool
	DPUCPU  *cpu.Pool // nil when the stack has no DPU
	// Do returns the per-access body: 8K-style reads and zero-filled writes
	// on file tid mod files. The host DFS clients have no buffered path and
	// ignore direct.
	Do   func(direct bool) workload.Do
	Stop func()
}

// NewStack builds the named stack (ext4, kvfs, dfs-std, dfs-opt or dfs-dpc)
// with files files of fileSize bytes.
func NewStack(name string, files int, fileSize uint64) (*Stack, error) {
	switch name {
	case "ext4":
		w := newExt4World(files, fileSize)
		return &Stack{Eng: w.m.Eng, HostCPU: w.m.HostCPU, Do: w.do, Stop: w.m.Eng.Shutdown}, nil
	case "kvfs", "dfs-dpc":
		w := newDPCWorld(func(o *dpcroot.Options) {
			o.EnableKVFS, o.EnableDFS = name == "kvfs", name != "kvfs"
		}).prefill(files, fileSize)
		return &Stack{Eng: w.sys.M.Eng, HostCPU: w.sys.M.HostCPU, DPUCPU: w.sys.M.DPUCPU, Do: w.do, Stop: w.stop}, nil
	case "dfs-std", "dfs-opt":
		w := newDFSHostWorld(name == "dfs-opt").setup(bigFileName, files, fileSize, 0)
		return &Stack{Eng: w.eng, HostCPU: w.hostCPU, Do: w.do, Stop: w.stop}, nil
	}
	return nil, fmt.Errorf("unknown stack %q", name)
}
