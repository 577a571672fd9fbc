// Package world builds every stack this repository measures or tortures —
// local Ext4, standalone KVFS, and the standard, host-optimized and
// DPU-offloaded DFS clients — and the bare host-DPU echo transports under
// the raw figures, and runs a measured closed loop on any of them. The
// figures, the torture harness, the what-if runner and the cmd/ tools all
// build here and nowhere else. A difference between two uses that an
// artifact can see — the store behind a handler, machine or driver sizing,
// a page-cache or cache-bucket count, file count and size — is an argument
// or a mutate of the one constructor, never a second constructor.
package world

import (
	"errors"
	"fmt"
	"time"

	"dpc"
	"dpc/internal/cache"
	"dpc/internal/dfs"
	"dpc/internal/localfs"
	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/workload"
)

// NewSystem assembles a DPC system from the default options as changed by
// mutate (nil keeps the defaults). It creates no client: a client registers
// its client.* metric family, which an attached sampler would export.
func NewSystem(mutate func(*dpc.Options)) *dpc.System {
	opts := dpc.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	return dpc.New(opts)
}

// World is one file-system stack under test behind one file surface, with
// the files Prefill wrote. Every world has a machine; the handles of the
// stack behind the surface are set for the stack that has them.
type World struct {
	Name string
	M    *model.Machine
	Sys  *dpc.System // the DPC stacks' system
	Cl   *dpc.Client // the DPC stacks' one client
	Ctl  *cache.Ctl  // its service's hybrid-cache control plane; nil without a cache
	Ext4 *localfs.FS // the Ext4 stack's file system
	FS   FS

	Big   []uint64 // the pre-filled big files
	Small []string // the small files' paths

	bufs ReadBufs
}

// NewExt4 is the local-Ext4 baseline: localfs over the machine's SSD, its
// default configuration as changed by mutate (nil keeps it).
func NewExt4(mutate func(*localfs.Config)) *World {
	m := model.NewMachine(model.Default())
	cfg := localfs.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	fs := localfs.New(m, m.NewSSD(), cfg)
	return &World{Name: "ext4", M: m, Ext4: fs, FS: ext4FS{fs}, bufs: ReadBufs{}}
}

// NewDPC is a DPC system under test with its one client: of KVFS, or of the
// offloaded DFS client when the options enable DFS instead.
func NewDPC(name string, mutate func(*dpc.Options)) *World {
	sys := NewSystem(mutate)
	cl, svc := sys.KVFSClient, sys.KVFSService
	if sys.KVFS == nil {
		cl, svc = sys.DFSClient, sys.DFSService
	}
	w := &World{Name: name, M: sys.M, Sys: sys, Cl: cl(), Ctl: svc().Ctl, bufs: ReadBufs{}}
	w.FS = dpcFS{w.Cl, map[uint64]*dpc.File{}}
	return w
}

// NewDFSHost is a host-resident DFS client world: the standard NFS client,
// or with opt the host-side optimized client (DPC's core on the host CPU).
func NewDFSHost(opt bool) *World {
	m := model.NewMachine(model.Default())
	b := dfs.NewBackend(m.Eng, m.Net, dfs.DefaultBackendConfig())
	name, cl := "NFS", dfs.Client(dfs.NewStdClient(b, m.HostNode, m.HostCPU, dfs.DefaultStdClientConfig()))
	if opt {
		name, cl = "NFS+opt-client", dfs.NewCore(b, m.HostNode, m.HostCPU, dfs.DefaultCoreCosts())
	}
	return &World{Name: name, M: m, FS: dfsFS{cl}, bufs: ReadBufs{}}
}

// Stop tears the simulation down.
func (w *World) Stop() {
	if w.Sys != nil {
		w.Sys.StopDaemons()
	}
	w.M.Eng.Shutdown()
}

// prefillChunk is the direct-write size every world is filled with.
const prefillChunk = 1 << 20

// smallFileSize is the one direct write each small file holds.
const smallFileSize = 8192

// BigFileName names the big files of the worlds whose behaviour does not
// depend on it (the DFS figure worlds' does: see Prefill).
const BigFileName = "/big%d"

// Prefill writes files big files of fileSize bytes, named by the format
// name, and smallN small files of one smallFileSize write each, all direct,
// then settles the world: for settle of virtual time, or until it drains
// when settle is 0. The DFS namespace is flat and a path's hash picks its
// home MDS, which allocates the inode number, which places the data — so
// the names are part of a DFS world. A failed op panics, naming the world.
func (w *World) Prefill(name string, files int, fileSize uint64, smallN int, settle time.Duration) *World {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("world: %s prefill: %v", w.Name, err))
		}
	}
	w.M.Eng.Go("setup", func(p *sim.Proc) {
		chunk := make([]byte, prefillChunk)
		for i := 0; i < files; i++ {
			ino, err := w.FS.Create(p, 0, fmt.Sprintf(name, i))
			must(err)
			for off := uint64(0); off < fileSize; off += prefillChunk {
				must(w.FS.Write(p, 0, ino, off, chunk, true))
			}
			w.Big = append(w.Big, ino)
		}
		small := make([]byte, smallFileSize)
		for i := 0; i < smallN; i++ {
			path := fmt.Sprintf("/small/f%04d", i)
			ino, err := w.FS.Create(p, 0, path)
			must(err)
			must(w.FS.Write(p, 0, ino, 0, small, true))
			w.Small = append(w.Small, path)
		}
	})
	if settle == 0 {
		w.M.Eng.Run()
	} else {
		w.M.Eng.RunUntil(w.M.Eng.Now() + sim.Time(settle))
	}
	return w
}

// Read reads n bytes of ino at off into thread tid's buffer: a measured
// read whose bytes are discarded.
func (w *World) Read(p *sim.Proc, tid int, ino, off uint64, n int, direct bool) error {
	_, err := w.FS.ReadInto(p, tid, ino, off, w.bufs.Get(tid, n), direct)
	return err
}

// Do is the random-I/O body on the big files: 8K-style reads and
// zero-filled writes on file tid mod files. The host DFS clients have no
// buffered path and ignore direct.
func (w *World) Do(direct bool) workload.Do {
	return func(p *sim.Proc, tid int, a workload.Access) error {
		ino := w.Big[tid%len(w.Big)]
		if a.Kind == workload.Write {
			return w.FS.Write(p, tid, ino, a.Off, make([]byte, a.Size), direct)
		}
		return w.Read(p, tid, ino, a.Off, a.Size, direct)
	}
}

// ReadBufs hands each worker proc (tid) of a closed loop one read buffer,
// grown to its largest read: the loops discard what they read.
type ReadBufs map[int][]byte

// Get returns tid's buffer cut to n bytes.
func (b ReadBufs) Get(tid, n int) []byte {
	if cap(b[tid]) < n {
		b[tid] = make([]byte, n)
	}
	return b[tid][:n]
}

// ---- one measured point ----

// Point is one measured closed-loop window.
type Point struct {
	Ops                  int64
	IOPS, GBps           float64
	Mean, P50, P99, Max  time.Duration
	HostCores, HostUsage float64
	DPUCores, DPUUsage   float64
	DMAsPerOp            float64
}

// Measure marks the machine's host and DPU CPU pools and PCIe counters, runs
// the closed loop, and reads the window back as one point. A failed op fails
// the window with an error naming the world and the case: nothing reports a
// rate over only the ops that survived.
func Measure(m *model.Machine, name, kase string, cfg workload.Config, gen workload.Generator, do workload.Do) (Point, error) {
	m.HostCPU.Mark()
	m.DPUCPU.Mark()
	m.PCIe.Mark()
	res := workload.Run(m.Eng, cfg, gen, do)
	if res.Errors > 0 {
		return Point{}, fmt.Errorf("%s, %s: %d of %d ops failed", name, kase, res.Errors, res.Errors+res.Ops)
	}
	return Point{
		Ops: res.Ops, IOPS: res.IOPS(), GBps: res.GBps(),
		Mean: res.Lat.Mean(), P50: res.Lat.Percentile(50), P99: res.Lat.Percentile(99), Max: res.Lat.Max(),
		HostCores: m.HostCPU.CoresUsed(), HostUsage: m.HostCPU.Usage(),
		DPUCores: m.DPUCPU.CoresUsed(), DPUUsage: m.DPUCPU.Usage(),
		DMAsPerOp: float64(m.PCIe.DMAs.Delta()) / float64(res.Ops),
	}, nil
}

// ---- the fsync reference workload ----

// FsyncWriters runs workers concurrent writers to completion on a system
// with a hybrid cache: each creates its own file (name plus its index) and
// does rounds rounds of one buffered burst-byte write then sync, which
// performs the fsync — wrapped in whatever span or timer the caller
// measures with. Returns the fsyncs completed and the last writer's finish
// time: group commit amortizes barriers across writers, so per-writer
// timing would hide exactly that effect.
func FsyncWriters(sys *dpc.System, workers, rounds, burst int, name string, sync func(p *sim.Proc, f *dpc.File) error) (fsyncs int64, last sim.Time, err error) {
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
