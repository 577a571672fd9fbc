package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	dpcroot "dpc"
	"dpc/internal/cpu"
	"dpc/internal/dfs"
	"dpc/internal/fuse"
	"dpc/internal/localfs"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
	"dpc/internal/virtio"
	"dpc/internal/workload"
)

// The reference worlds: every fixed set-up the paper's evaluation (and so a
// committed artifact, a figure table or a cmd/ tool) measures is built here
// and nowhere else. A difference between two uses that an artifact can see
// — the store behind the handler, machine or driver sizing, file count and
// size — is an argument of the one constructor, never a second constructor.

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
	// storeVirt is §4.1's DRAM "virtual client": it charges DPUVirtClient
	// per op, discards writes and reads back zeros, so measured latency is
	// the pure host-DPU round trip.
	storeVirt
)

func echoStore(m *model.Machine, s Store) (put func(p *sim.Proc, off uint64, data []byte) error, get func(p *sim.Proc, off uint64, n int) ([]byte, error)) {
	switch s {
	case StoreSSD:
		dev := m.NewSSD()
		return func(p *sim.Proc, off uint64, data []byte) error { return dev.Write(p, int64(off), data) },
			func(p *sim.Proc, off uint64, n int) ([]byte, error) { return dev.Read(p, int64(off), n) }
	case storeVirt:
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

// NewNvmeEcho builds a bare machine with an nvme-fs driver whose handler
// stores each write at its DW12 offset in store and reads it back.
func NewNvmeEcho(cfg model.Config, ncfg nvmefs.Config, store Store) (*model.Machine, *nvmefs.Driver) {
	m := model.NewMachine(cfg)
	put, get := echoStore(m, store)
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
func newVirtioEcho(cfg model.Config, vcfg virtio.Config, store Store) (*model.Machine, *virtio.Transport) {
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
	m, tr := newVirtioEcho(walkMachine(o), virtio.Config{QueueSize: 256, Slots: 16, MaxIO: 1 << 20}, store)
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
	sys := newSystem(func(opts *dpcroot.Options) { opts.Model.Obs = o })
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

// ---- the DPC system: the one place a dpc.System is built ----

// newSystem assembles a system from the default options as changed by
// mutate. It creates no client: a client registers its client.* metric
// family, which an attached sampler would export.
func newSystem(mutate func(*dpcroot.Options)) *dpcroot.System {
	opts := dpcroot.DefaultOptions()
	mutate(&opts)
	return dpcroot.New(opts)
}

// ---- pre-filled worlds: a stack with its files written before measuring ----

// world is one file-system stack under test — local Ext4, standalone KVFS,
// or a DFS client (standard NFS, the host-optimized client, or DPC's
// offloaded one) — behind one file surface, with the files prefill wrote.
type world struct {
	name string
	m    *model.Machine
	sys  *dpcroot.System // nil for the host-only stacks
	cl   *dpcroot.Client // the DPC stacks' client

	// A file is its inode number. The host DFS clients have no buffered
	// path and ignore direct.
	create func(p *sim.Proc, tid int, path string) (uint64, error)
	lookup func(p *sim.Proc, tid int, path string) (uint64, error)
	write  func(p *sim.Proc, tid int, ino, off uint64, data []byte, direct bool) error
	read   func(p *sim.Proc, tid int, ino, off uint64, n int, direct bool) error // the bytes are discarded

	big   []uint64 // the pre-filled big files
	small []string // the small files' paths
	stop  func()
}

// newExt4World is the local-Ext4 baseline: localfs over the machine's SSD.
func newExt4World() *world {
	m := model.NewMachine(model.Default())
	fs := localfs.New(m, m.NewSSD(), localfs.DefaultConfig())
	return &world{
		name: "ext4", m: m,
		create: func(p *sim.Proc, _ int, path string) (uint64, error) { return fs.Create(p, path) },
		lookup: func(p *sim.Proc, _ int, path string) (uint64, error) { return fs.Lookup(p, path) },
		write: func(p *sim.Proc, _ int, ino, off uint64, data []byte, direct bool) error {
			return fs.Write(p, ino, off, data, direct)
		},
		read: func(p *sim.Proc, _ int, ino, off uint64, n int, direct bool) error {
			_, err := fs.Read(p, ino, off, n, direct)
			return err
		},
		stop: m.Eng.Shutdown,
	}
}

// newDPCWorld is a DPC system under test with its one client: of KVFS, or
// of the offloaded DFS client when the options enable DFS instead.
func newDPCWorld(name string, mutate func(*dpcroot.Options)) *world {
	sys := newSystem(mutate)
	cl := sys.KVFSClient
	if sys.KVFS == nil {
		cl = sys.DFSClient
	}
	w := &world{name: name, m: sys.M, sys: sys, cl: cl()}
	files := map[uint64]*dpcroot.File{}
	open := func(f *dpcroot.File, err error) (uint64, error) {
		if err != nil {
			return 0, err
		}
		files[f.Ino] = f
		return f.Ino, nil
	}
	bufs := readBufs{}
	w.create = func(p *sim.Proc, tid int, path string) (uint64, error) { return open(w.cl.Create(p, tid, path)) }
	w.lookup = func(p *sim.Proc, tid int, path string) (uint64, error) { return open(w.cl.Open(p, tid, path)) }
	w.write = func(p *sim.Proc, tid int, ino, off uint64, data []byte, direct bool) error {
		return files[ino].Write(p, tid, off, data, direct)
	}
	w.read = func(p *sim.Proc, tid int, ino, off uint64, n int, direct bool) error {
		_, err := files[ino].ReadInto(p, tid, off, bufs.get(tid, n), direct)
		return err
	}
	w.stop = func() { sys.StopDaemons(); sys.Shutdown() }
	return w
}

// newDFSHostWorld is a host-resident DFS client world: the standard NFS
// client, or with opt the host-side optimized client (DPC's core on the
// host CPU).
func newDFSHostWorld(opt bool) *world {
	m := model.NewMachine(model.Default())
	b := dfs.NewBackend(m.Eng, m.Net, dfs.DefaultBackendConfig())
	name, cl := "NFS", dfs.Client(dfs.NewStdClient(b, m.HostNode, m.HostCPU, dfs.DefaultStdClientConfig()))
	if opt {
		name, cl = "NFS+opt-client", dfs.NewCore(b, m.HostNode, m.HostCPU, dfs.DefaultCoreCosts())
	}
	return &world{
		name: name, m: m,
		create: func(p *sim.Proc, _ int, path string) (uint64, error) { return cl.Create(p, path) },
		lookup: func(p *sim.Proc, _ int, path string) (uint64, error) {
			ino, _, err := cl.Lookup(p, path)
			return ino, err
		},
		write: func(p *sim.Proc, _ int, ino, off uint64, data []byte, _ bool) error {
			return cl.Write(p, ino, off, data)
		},
		read: func(p *sim.Proc, _ int, ino, off uint64, n int, _ bool) error {
			_, err := cl.Read(p, ino, off, n)
			return err
		},
		stop: m.Eng.Shutdown,
	}
}

// prefillChunk is the direct-write size every world is filled with.
const prefillChunk = 1 << 20

// bigFileName names the big files of the worlds whose behaviour does not
// depend on it (the DFS figure worlds' does: see prefill).
const bigFileName = "/big%d"

// prefill writes files big files of fileSize bytes, named by the format
// name, and smallN small files of one dfsIOSize write each, all direct, then
// settles the world: for settle of virtual time, or until it drains when
// settle is 0. The DFS namespace is flat and a path's hash picks its home
// MDS, which allocates the inode number, which places the data — so the
// names are part of a DFS world. A failed op panics, naming the world.
func (w *world) prefill(name string, files int, fileSize uint64, smallN int, settle time.Duration) *world {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("exp: %s prefill: %v", w.name, err))
		}
	}
	w.m.Eng.Go("setup", func(p *sim.Proc) {
		chunk := make([]byte, prefillChunk)
		for i := 0; i < files; i++ {
			ino, err := w.create(p, 0, fmt.Sprintf(name, i))
			must(err)
			for off := uint64(0); off < fileSize; off += prefillChunk {
				must(w.write(p, 0, ino, off, chunk, true))
			}
			w.big = append(w.big, ino)
		}
		small := make([]byte, dfsIOSize)
		for i := 0; i < smallN; i++ {
			path := fmt.Sprintf("/small/f%04d", i)
			ino, err := w.create(p, 0, path)
			must(err)
			must(w.write(p, 0, ino, 0, small, true))
			w.small = append(w.small, path)
		}
	})
	if settle == 0 {
		w.m.Eng.Run()
	} else {
		w.m.Eng.RunUntil(w.m.Eng.Now() + sim.Time(settle))
	}
	return w
}

// do is the random-I/O body on the big files: 8K-style reads and
// zero-filled writes on file tid mod files.
func (w *world) do(direct bool) workload.Do {
	return func(p *sim.Proc, tid int, a workload.Access) error {
		ino := w.big[tid%len(w.big)]
		if a.Kind == workload.Write {
			return w.write(p, tid, ino, a.Off, make([]byte, a.Size), direct)
		}
		return w.read(p, tid, ino, a.Off, a.Size, direct)
	}
}

// stacks are the worlds NewStack builds by name, each with the settle step
// of the figure that measures it.
var stacks = map[string]struct {
	build  func() *world
	settle time.Duration
}{
	"ext4": {newExt4World, 0},
	"kvfs": {func() *world { return newDPCWorld("kvfs", func(*dpcroot.Options) {}) }, time.Minute},
	"dfs-dpc": {func() *world {
		return newDPCWorld("dfs-dpc", func(o *dpcroot.Options) { o.EnableKVFS, o.EnableDFS = false, true })
	}, time.Minute},
	"dfs-std": {func() *world { return newDFSHostWorld(false) }, 10 * time.Second},
	"dfs-opt": {func() *world { return newDFSHostWorld(true) }, 10 * time.Second},
}

// Stack is a pre-filled world's exported face, for ad-hoc runs outside the
// fixed paper sweeps (cmd/dpcfio).
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
	st, ok := stacks[name]
	if !ok {
		return nil, fmt.Errorf("unknown stack %q", name)
	}
	w := st.build().prefill(bigFileName, files, fileSize, 0, st.settle)
	s := &Stack{Eng: w.m.Eng, HostCPU: w.m.HostCPU, Do: w.do, Stop: w.stop}
	if w.sys != nil {
		s.DPUCPU = w.m.DPUCPU
	}
	return s, nil
}

// ---- one measured point ----

// point is one measured closed-loop window.
type point struct {
	Ops        int64
	IOPS, GBps float64
	Mean, P99  time.Duration
	HostCores  float64
	HostUsage  float64
	DPUCores   float64
	DPUUsage   float64
	DMAsPerOp  float64
}

// measure marks the machine's host and DPU CPU pools and PCIe counters, runs
// the closed loop, and reads the window back as one point. A failed op
// panics, naming the world and the case: a figure never prints a rate that
// silently dropped ops.
func measure(m *model.Machine, world, kase string, cfg workload.Config, gen workload.Generator, do workload.Do) point {
	m.HostCPU.Mark()
	m.DPUCPU.Mark()
	m.PCIe.Mark()
	res := workload.Run(m.Eng, cfg, gen, do)
	if res.Errors > 0 {
		panic(fmt.Sprintf("exp: %s, %s: %d of %d ops failed", world, kase, res.Errors, res.Errors+res.Ops))
	}
	return point{
		Ops: res.Ops, IOPS: res.IOPS(), GBps: res.GBps(),
		Mean: res.Lat.Mean(), P99: res.Lat.Percentile(99),
		HostCores: m.HostCPU.CoresUsed(), HostUsage: m.HostCPU.Usage(),
		DPUCores: m.DPUCPU.CoresUsed(), DPUUsage: m.DPUCPU.Usage(),
		DMAsPerOp: float64(m.PCIe.DMAs.Delta()) / float64(res.Ops),
	}
}
