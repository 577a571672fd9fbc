// Package dpc is the public API of the DPC reproduction: a DPU-accelerated
// high-performance file system client (Zhong et al., ICPP 2024), built as a
// deterministic full-system simulation.
//
// A System assembles a simulated application server (host CPU + DPU joined
// by a PCIe link), the nvme-fs protocol between them, the hybrid file data
// cache (host data plane, DPU control plane), and one or both file
// services: KVFS over a disaggregated KV store (standalone service) and the
// offloaded DFS client against an erasure-coded MDS/data-server backend
// (distributed service).
//
// Everything runs in virtual time on the machine's event engine: callers
// create sim processes with sys.Go (application threads), then sys.Run()
// or sys.RunFor(d) to execute. Functional state — file data, KV contents,
// erasure-coded shards, cache pages — is real bytes; only time is
// simulated.
//
// Quick start:
//
//	sys := dpc.New(dpc.DefaultOptions())
//	cl := sys.KVFSClient()
//	sys.Go(func(p *sim.Proc) {
//	    f, _ := cl.Create(p, 0, "/hello.txt")
//	    f.Write(p, 0, 0, []byte("hi"), true)
//	    data, _ := f.Read(p, 0, 0, 2, true)
//	    fmt.Println(string(data))
//	})
//	sys.Run()
package dpc

import (
	"fmt"
	"time"

	"dpc/internal/bufpool"
	"dpc/internal/cache"
	"dpc/internal/dfs"
	"dpc/internal/dispatch"
	"dpc/internal/fault"
	"dpc/internal/kv"
	"dpc/internal/kvfs"
	"dpc/internal/model"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/wal"
	"dpc/internal/xform"
)

// Options configures a System.
type Options struct {
	// Model is the simulated testbed (Table 1 by default).
	Model model.Config
	// NvmeFS sizes the nvme-fs driver (queues, depth, max I/O).
	NvmeFS nvmefs.Config

	// EnableKVFS attaches the standalone KVFS service over a disaggregated
	// KV cluster.
	EnableKVFS bool

	// EnableDFS attaches the offloaded distributed file service.
	EnableDFS bool

	// CachePages enables the hybrid cache with this many 8 KiB pages per
	// enabled service (0 disables caching).
	CachePages   int
	CacheBuckets int
	Ctl          cache.CtlConfig

	// WAL, when Enabled, puts a write-ahead log on a local simulated SSD and
	// attaches it to the KVFS cache controller: fsync group-commits dirty
	// pages to the log instead of writing them through, and crash recovery
	// replays the log's valid prefix. Disabled (the default) creates no
	// device, no timers and no wal.* metrics — a WAL-off system is
	// byte-identical to one built before the WAL existed.
	WAL wal.Config

	// Faults, when non-empty, attaches a deterministic fault injector with
	// this rule schedule to the nvme-fs driver, the PCIe link and the cache
	// controllers. Empty leaves every fault hook nil: the data path behaves
	// (and meters) exactly as a fault-free build.
	Faults []fault.Rule

	// Compression and DIF enable DPU-side block transforms on KVFS data
	// (§3.3's flush-time processing: the DPU compresses and/or tags blocks
	// before they reach the disaggregated store). Compression shrinks KV
	// values and network traffic; DIF detects corruption end to end.
	Compression bool
	DIF         bool
}

// cachePageSize is the hybrid cache's page size.
const cachePageSize = 8192

// DefaultOptions enables KVFS with a 2048-page (16 MB) hybrid cache.
func DefaultOptions() Options {
	return Options{
		Model:        model.Default(),
		NvmeFS:       nvmefs.DefaultConfig(),
		EnableKVFS:   true,
		EnableDFS:    false,
		CachePages:   2048,
		CacheBuckets: 256,
		Ctl:          cache.DefaultCtlConfig(),
		WAL:          wal.DefaultConfig(),
	}
}

// System is an assembled DPC machine.
type System struct {
	M *model.Machine

	// Driver is the nvme-fs stack (NVME-INI + NVME-TGT threads).
	Driver *nvmefs.Driver
	// Dispatcher is the DPU IO_Dispatch module.
	Dispatcher *dispatch.Dispatcher
	// Faults is the fault injector (nil unless Options.Faults was set).
	Faults *fault.Injector

	// KVFS-side components (nil unless EnableKVFS).
	KVFS      *kvfs.FS
	KVCluster *kv.Cluster
	kvfsSvc   *dispatch.Service
	kvfsHost  *cache.Host

	// WAL components (nil unless Options.WAL.Enabled with a KVFS cache).
	WALDev *ssd.Device
	WAL    *wal.Log

	// DFS-side components (nil unless EnableDFS).
	DFSBackend *dfs.Backend
	DFSCore    *dfs.Core
	dfsSvc     *dispatch.Service
	dfsHost    *cache.Host

	// Per-service shared inode-size tables: every client of a service sees
	// the same view of each inode's published EOF, so a handle on one client
	// never clamps reads to a size another handle has already extended past.
	kvfsSizes *sizeTable
	dfsSizes  *sizeTable

	// pool recycles data-path scratch buffers (RMW staging, direct-I/O
	// chunk landing) across every client of the system.
	pool *bufpool.Pool

	mounted bool
}

// New assembles a system.
func New(opts Options) *System {
	m := model.NewMachine(opts.Model)
	sys := &System{M: m,
		kvfsSizes: newSizeTable(), dfsSizes: newSizeTable(), pool: bufpool.New()}

	if opts.EnableKVFS {
		sys.KVCluster = kv.NewCluster(m.Eng, m.Net, kv.DefaultClusterConfig())
		sys.KVFS = kvfs.New(m, sys.KVCluster.NewClient(m.DPUNode))
		if t := buildTransform(opts); t != nil {
			sys.KVFS.SetTransform(t)
		}
		svc := &dispatch.Service{KVFS: sys.KVFS}
		if opts.CachePages > 0 {
			l := sys.newCacheLayout(opts)
			svc.Ctl = cache.NewCtl(m, l, kvfs.PageBackend{FS: sys.KVFS}, opts.Ctl)
			sys.kvfsHost = cache.NewHost(m, l)
			if opts.WAL.Enabled {
				sys.WALDev = m.NewSSD()
				sys.WAL = wal.Open(m.Eng, sys.WALDev, opts.WAL)
				sys.WAL.AttachObs(m.Obs)
				svc.Ctl.SetWAL(sys.WAL)
			}
		}
		sys.kvfsSvc = svc
	}
	if opts.EnableDFS {
		sys.DFSBackend = dfs.NewBackend(m.Eng, m.Net, dfs.DefaultBackendConfig())
		// The offloaded client core is a lean, purpose-built pipeline: it
		// skips the kernel client's syscall/VFS/page-pinning overheads and
		// uses the DPU's erasure-coding accelerator (§3.3: "this step can
		// be accelerated by hardware"), so its per-op cost is well below
		// the host client's ~71 µs.
		costs := dfs.CoreCosts{PerOpCycles: 45_000, ECCyclesPerByte: 1, DelegationCycles: 2_500}
		sys.DFSCore = dfs.NewCore(sys.DFSBackend, m.DPUNode, m.DPUCPU, costs)
		sys.DFSCore.AttachObs(m.Obs)
		svc := &dispatch.Service{DFS: sys.DFSCore}
		if opts.CachePages > 0 {
			l := sys.newCacheLayout(opts)
			svc.Ctl = cache.NewCtl(m, l, dfsPageBackend{core: sys.DFSCore}, opts.Ctl)
			sys.dfsHost = cache.NewHost(m, l)
		}
		sys.dfsSvc = svc
	}

	sys.Dispatcher = dispatch.New(m, sys.kvfsSvc, sys.dfsSvc)
	sys.Driver = nvmefs.NewDriver(m, opts.NvmeFS, sys.handle)
	if n := sys.Driver.Tenants(); n > 0 {
		sys.Dispatcher.EnableTenants(n)
	}

	if len(opts.Faults) > 0 {
		sys.Faults = fault.New(m.Eng, opts.Faults)
		sys.Faults.AttachObs(m.Obs)
		sys.Driver.SetFaults(sys.Faults)
		m.PCIe.SetFaults(sys.Faults)
		if sys.kvfsSvc != nil && sys.kvfsSvc.Ctl != nil {
			sys.kvfsSvc.Ctl.SetFaults(sys.Faults)
		}
		if sys.dfsSvc != nil && sys.dfsSvc.Ctl != nil {
			sys.dfsSvc.Ctl.SetFaults(sys.Faults)
		}
		if sys.WAL != nil {
			sys.WAL.SetFaults(sys.Faults)
			sys.WALDev.SetFaults(sys.Faults)
		}
	}
	return sys
}

func (sys *System) newCacheLayout(opts Options) cache.Layout {
	probe := cache.NewLayout(0, cachePageSize, opts.CachePages, opts.CacheBuckets)
	base := sys.M.AllocHost(probe.Size(), 4096)
	l := cache.NewLayout(base, cachePageSize, opts.CachePages, opts.CacheBuckets)
	cache.InitHeader(sys.M.HostMem, l, cache.ModeWrite)
	return l
}

// handle wraps the dispatcher, lazily mounting KVFS on the first request
// (mounting writes the root attribute KV, which needs a sim process).
func (sys *System) handle(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
	if !sys.mounted {
		sys.mounted = true
		if sys.KVFS != nil {
			sys.KVFS.Mount(p)
		}
	}
	return sys.Dispatcher.Handle(p, req)
}

// Go spawns an application thread (a sim process) on the host.
func (sys *System) Go(fn func(p *sim.Proc)) { sys.M.Eng.Go("app", fn) }

// Run executes the simulation until all runnable work completes. If any
// cache flush daemon is running, use RunFor instead (the daemon wakes
// forever) or call StopDaemons first.
func (sys *System) Run() { sys.M.Eng.Run() }

// RunFor executes the simulation for d of virtual time.
func (sys *System) RunFor(d time.Duration) {
	sys.M.Eng.RunUntil(sys.M.Eng.Now() + sim.Time(d))
}

// Drive runs each fn as an application thread and pumps virtual time in
// 10 ms slices until all of them have returned: a cache flush daemon wakes
// forever, so a system with one never drains its event heap and Run would
// not come back. Now() afterwards sits on the slice boundary that followed
// the last return.
func (sys *System) Drive(fns ...func(p *sim.Proc)) {
	running := len(fns)
	for _, fn := range fns {
		sys.Go(func(p *sim.Proc) {
			fn(p)
			running--
		})
	}
	for i := 0; running > 0; i++ {
		if i > 1<<20 {
			panic("dpc: Drive did not finish within the simulated time budget")
		}
		sys.RunFor(10 * time.Millisecond)
	}
}

// RunUntil executes the simulation up to exactly virtual time t. The crash
// harness uses it to stop the world at a seed-chosen instant.
func (sys *System) RunUntil(t sim.Time) { sys.M.Eng.RunUntil(t) }

// StopDaemons stops the cache flush daemons so Run can drain.
func (sys *System) StopDaemons() {
	if sys.kvfsSvc != nil && sys.kvfsSvc.Ctl != nil {
		sys.kvfsSvc.Ctl.Stop()
	}
	if sys.dfsSvc != nil && sys.dfsSvc.Ctl != nil {
		sys.dfsSvc.Ctl.Stop()
	}
}

// Shutdown kills all parked processes (server loops). The system is not
// usable afterwards.
func (sys *System) Shutdown() { sys.M.Eng.Shutdown() }

// Now returns the current virtual time.
func (sys *System) Now() sim.Time { return sys.M.Eng.Now() }

// Obs returns the observability registry wired through the machine, or nil
// when Options.Model.Obs was unset (instrumentation disabled).
func (sys *System) Obs() *obs.Obs { return sys.M.Obs }

// KVFSClient returns a client of the standalone KVFS service.
func (sys *System) KVFSClient() *Client {
	if sys.kvfsSvc == nil {
		panic("dpc: KVFS not enabled")
	}
	return newClient(sys, 0, sys.kvfsHost, sys.kvfsSizes, -1)
}

// DFSClient returns a client of the distributed file service.
func (sys *System) DFSClient() *Client {
	if sys.dfsSvc == nil {
		panic("dpc: DFS not enabled")
	}
	return newClient(sys, 1, sys.dfsHost, sys.dfsSizes, -1)
}

// TenantKVFSClient returns a KVFS client confined to tenant t's queue group
// of a multi-tenant driver: every submission lands on t's SQ/CQ subset and
// the client's latency histograms register under the t<N>. metric prefix.
// Panics unless the driver was built with >= 2 Config.Tenants entries.
func (sys *System) TenantKVFSClient(t int) *Client {
	if sys.kvfsSvc == nil {
		panic("dpc: KVFS not enabled")
	}
	if n := sys.Driver.Tenants(); t < 0 || t >= n {
		panic(fmt.Sprintf("dpc: tenant %d outside the %d configured tenants", t, n))
	}
	return newClient(sys, 0, sys.kvfsHost, sys.kvfsSizes, t)
}

// buildTransform assembles the optional block-transform chain: compression
// first (shrink), then DIF (protect the stored representation).
func buildTransform(opts Options) xform.Transform {
	var chain xform.Chain
	if opts.Compression {
		chain = append(chain, xform.LZSS{})
	}
	if opts.DIF {
		chain = append(chain, xform.DIF{})
	}
	if len(chain) == 0 {
		return nil
	}
	return chain
}

// Recover rebuilds a freshly assembled WAL-enabled system from the durable
// state a crash left behind. The caller has already transplanted that state:
// the KV cluster's stores hold the crash image (kv.Store.Put per shard) and
// the WAL device image was installed with WALDev.Restore + WAL.Reopen.
// Recover then runs the mount-time sequence as a sim process:
//
//  1. mount (idempotent root attribute);
//  2. kvfs.Scavenge — repair the torn prefixes of in-flight multi-KV
//     metadata operations and rebuild the inode allocation cursor;
//  3. WAL replay — re-apply every acknowledged-but-unflushed page from the
//     log's valid prefix through the ordinary write path;
//  4. checkpoint — the log's contents are now redundant, so reclaim it.
//
// Idempotent up to the checkpoint: a second crash anywhere before step 4
// completes re-runs the same sequence against the same (or further-settled)
// state.
func (sys *System) Recover(p *sim.Proc) (wal.ReplayStats, *kvfs.RecoverReport, error) {
	if sys.WAL == nil || sys.KVFS == nil {
		panic("dpc: Recover needs a WAL-enabled KVFS system")
	}
	if !sys.mounted {
		sys.mounted = true
		sys.KVFS.Mount(p)
	}
	rep := sys.KVFS.Scavenge(p, sys.KVCluster)
	sys.KVFS.SetNextIno(rep.MaxIno + 1)
	backend := kvfs.PageBackend{FS: sys.KVFS}
	st, err := sys.WAL.Recover(p, func(pp *sim.Proc, r wal.Record) error {
		return backend.WritePage(pp, r.Ino, r.LPN, cachePageSize, r.Data)
	})
	if err != nil {
		return st, rep, err
	}
	return st, rep, sys.WAL.Checkpoint(p)
}

// KVFSService exposes the KVFS dispatch service (ablations and tests).
func (sys *System) KVFSService() *dispatch.Service { return sys.kvfsSvc }

// DFSService exposes the DFS dispatch service (ablations and tests).
func (sys *System) DFSService() *dispatch.Service { return sys.dfsSvc }

// dfsPageBackend adapts the DFS core to the cache Backend interface.
type dfsPageBackend struct {
	core *dfs.Core
}

// ReadPageRange implements cache.RangeBackend: the whole run is one core
// read into one buffer.
func (b dfsPageBackend) ReadPageRange(p *sim.Proc, ino, lpn uint64, n, pageSize int) [][]byte {
	off := lpn * uint64(pageSize)
	return cache.ReadPages(n, pageSize, func(buf []byte) (int, error) { return b.core.ReadInto(p, ino, off, buf) })
}

func (b dfsPageBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	off := lpn * uint64(pageSize)
	// Clamp the whole-page flush to the file's true EOF so write-back never
	// inflates the size recorded at the MDS. An unknown size means no local
	// delegation — write unclamped rather than drop data.
	if size, ok := b.core.SizeOf(ino); ok {
		if off >= size {
			return nil
		}
		if end := off + uint64(len(data)); end > size {
			data = data[:size-off]
		}
	}
	return b.core.Write(p, ino, off, data)
}
