package check

import (
	"fmt"
	"time"

	"dpc"
	"dpc/internal/cache"
	"dpc/internal/dfs"
	"dpc/internal/fault"
	"dpc/internal/kvfs"
	"dpc/internal/localfs"
	"dpc/internal/model"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/ssd"
)

// World is one file system stack under test, wrapped behind a uniform
// replay surface. Apply/Barrier/Fsck run inside a sim process started by
// Drive; Close tears the simulation down.
type World struct {
	name string
	caps Caps

	drive   func(fn func(p *sim.Proc))
	apply   func(p *sim.Proc, op Op) Result
	settle  func(p *sim.Proc)          // let flush daemons catch up
	barrier func(p *sim.Proc)          // flush everything dirty
	fsck    func(p *sim.Proc) []string // offline consistency check, nil if none
	close   func()
	disarm  func()          // stop fault injection (fault worlds only)
	now     func() sim.Time // current virtual time (dpc worlds only)
}

// Name returns the stack's registry name.
func (w *World) Name() string { return w.name }

// Caps returns what the stack supports; the generator is masked to this.
func (w *World) Caps() Caps { return w.caps }

// Drive runs fn as a simulated application thread to completion.
func (w *World) Drive(fn func(p *sim.Proc)) { w.drive(fn) }

// Apply executes one trace operation against the stack.
func (w *World) Apply(p *sim.Proc, op Op) Result { return w.apply(p, op) }

// Settle idles long enough for background daemons (the cache flush daemon)
// to run a few passes.
func (w *World) Settle(p *sim.Proc) {
	if w.settle != nil {
		w.settle(p)
	}
}

// Barrier flushes all dirty state to the backend.
func (w *World) Barrier(p *sim.Proc) {
	if w.barrier != nil {
		w.barrier(p)
	}
}

// Fsck runs the stack's offline consistency check, returning its problems.
// Only meaningful after Barrier (dirty cache pages must be on the backend).
func (w *World) Fsck(p *sim.Proc) []string {
	if w.fsck == nil {
		return nil
	}
	return w.fsck(p)
}

// Close tears down the simulation.
func (w *World) Close() { w.close() }

// Disarm stops fault injection so the final settle/barrier/verify runs
// against a healthy stack. No-op on fault-free worlds.
func (w *World) Disarm() {
	if w.disarm != nil {
		w.disarm()
	}
}

// Now returns the stack's current virtual time, or 0 if the world does not
// expose its clock. Observed worlds use it to timestamp trace exports.
func (w *World) Now() sim.Time {
	if w.now == nil {
		return 0
	}
	return w.now()
}

// stackSpec is one row of the stack table: either a dpc system, described by
// the service behind its offloaded client and the features switched on, or a
// baseline the dpc stacks are compared with — no dpc system, hence no
// injector hooks and no obs handle.
type stackSpec struct {
	name       string
	service    string // "kvfs" or "dfs" behind the offloaded client
	cachePages int    // hybrid cache size; 0 leaves only direct I/O
	inlineMax  int    // inline small-I/O limit; 0 is DMA only
	wal        bool   // fsync journals through the write-ahead log
	// baseline, when non-nil, builds a baseline row; the features above are unused.
	baseline func(name string) *World
}

// inlineMaxForTorture is the InlineMax of the inline stacks; 512 keeps the
// link-cost cutover (389 B on the default link) strictly inside it so
// torture traces exercise both sides of the boundary.
const inlineMaxForTorture = 512

// stacks is every stack the harness can instantiate, in report order; the
// name lists, the constructors' error messages and the crash suite's system
// all derive from it. The differential suite must not be able to tell the
// feature rows apart: inline is a transport optimization, the WAL a different
// way to keep the same fsync promise (and the only place the fault suite's
// SiteWAL rules fire), and kvfs-inline-wal runs both behind one cache. The
// cache is deliberately small (128 pages, 16 buckets) to keep eviction and
// write-through pressure high.
var stacks = []stackSpec{
	{name: "kvfs-direct", service: "kvfs"},
	{name: "kvfs-cache", service: "kvfs", cachePages: 128},
	{name: "kvfs-inline", service: "kvfs", cachePages: 128, inlineMax: inlineMaxForTorture},
	{name: "kvfs-wal", service: "kvfs", cachePages: 128, wal: true},
	{name: "kvfs-inline-wal", service: "kvfs", cachePages: 128, inlineMax: inlineMaxForTorture, wal: true},
	{name: "localfs", baseline: newLocalWorld},
	{name: "dfs-std", baseline: func(name string) *World { return newDFSWorld(name, false) }},
	{name: "dfs-opt", baseline: func(name string) *World { return newDFSWorld(name, true) }},
	{name: "dfs-dpc", service: "dfs", cachePages: 128},
}

func stackByName(name string) (stackSpec, bool) {
	for _, s := range stacks {
		if s.name == name {
			return s, true
		}
	}
	return stackSpec{}, false
}

func stackNames(dpcOnly bool) []string {
	var names []string
	for _, s := range stacks {
		if !dpcOnly || s.baseline == nil {
			names = append(names, s.name)
		}
	}
	return names
}

// StackNames lists every stack the harness can instantiate.
func StackNames() []string { return stackNames(false) }

// FaultStackNames lists the stacks that support fault injection (the dpc
// data-path stacks; the baselines have no injector hooks).
func FaultStackNames() []string { return stackNames(true) }

// NewWorld instantiates a fresh stack by name.
func NewWorld(name string) (*World, error) {
	s, ok := stackByName(name)
	if !ok {
		return nil, fmt.Errorf("check: unknown stack %q (have %v)", name, StackNames())
	}
	if s.baseline != nil {
		return s.baseline(name), nil
	}
	return newDPCWorld(s, s.system(nil, nil)), nil
}

// NewFaultWorld instantiates a stack with the deterministic torture fault
// schedule derived from seed. The same (name, seed) always produces the
// same injected faults at the same virtual times.
func NewFaultWorld(name string, seed int64) (*World, error) {
	return newDPCWorldNamed(name, "does not support fault injection", fault.TortureSchedule(seed), nil)
}

func newDPCWorldNamed(name, cannot string, faults []fault.Rule, o *obs.Obs) (*World, error) {
	if s, ok := stackByName(name); ok && s.baseline == nil {
		return newDPCWorld(s, s.system(faults, o)), nil
	}
	return nil, fmt.Errorf("check: stack %q %s (have %v)", name, cannot, FaultStackNames())
}

// ---- dpc worlds (KVFS or the offloaded DFS client, direct or hybrid-cache) ----

// system assembles the dpc system the row describes.
func (s stackSpec) system(faults []fault.Rule, o *obs.Obs) *dpc.System {
	opts := dpc.DefaultOptions()
	opts.Model.Obs = o
	opts.EnableKVFS = s.service == "kvfs"
	opts.EnableDFS = s.service == "dfs"
	opts.CachePages = s.cachePages
	opts.CacheBuckets = 16
	opts.NvmeFS.InlineMax = s.inlineMax
	opts.WAL.Enabled = s.wal
	opts.Faults = faults
	return dpc.New(opts)
}

// caps is what the row's client supports; the generator is masked to it.
func (s stackSpec) caps() Caps {
	cached := s.cachePages > 0
	if s.service == "dfs" {
		return Caps{Buffered: cached, Direct: true, Fsync: cached, Align: dfs.BlockSize, MaxFile: 64 * 1024}
	}
	return Caps{
		Buffered: cached,
		Direct:   true,
		Mkdir:    true,
		Unlink:   true,
		Rename:   true,
		Truncate: true,
		Fsync:    cached,
		MaxFile:  96 * 1024,
	}
}

// newDPCWorld is the world of row s over sys, a system the row built.
func newDPCWorld(s stackSpec, sys *dpc.System) *World {
	newClient, service := sys.KVFSClient, sys.KVFSService
	if s.service == "dfs" {
		newClient, service = sys.DFSClient, sys.DFSService
	}
	cl, ctl := newClient(), service().Ctl

	w := &World{
		name:  s.name,
		caps:  s.caps(),
		drive: func(fn func(p *sim.Proc)) { sys.Drive(fn) },
		apply: func(p *sim.Proc, op Op) Result { return applyDPC(p, cl, op) },
		close: func() { sys.StopDaemons(); sys.Shutdown() },
		now:   sys.Now,
		// Disarm is nil-safe: a no-op on a world built without faults.
		disarm: sys.Faults.Disarm,
		// The backend's own fsck where it has one, then the hybrid cache's
		// meta table: the run is quiescent here, so a lock word still held or
		// a fill claim still pending was leaked by the entry protocol — as was
		// an entry the control plane still records as its own, on which the
		// next fsync would park for good.
		fsck: func(p *sim.Proc) []string {
			var probs []string
			if sys.KVFS != nil {
				probs = sys.KVFS.Fsck(p, sys.KVCluster).Problems
			}
			if ctl != nil {
				probs = append(probs, cache.Fsck(sys.M.HostMem, ctl.L)...)
				if i := ctl.HeldEntry(); i >= 0 {
					probs = append(probs, fmt.Sprintf("cache: control plane still records entry %d's lock as held", i))
				}
			}
			return probs
		},
	}
	if ctl != nil {
		w.settle = func(p *sim.Proc) { p.Sleep(5 * time.Millisecond) }
		w.barrier = func(p *sim.Proc) {
			if err := cl.Sync(p, 0); err != nil {
				panic(fmt.Sprintf("check: barrier failed: %v", err))
			}
		}
	}
	return w
}

// applyDPC maps trace ops onto the dpc client API (shared by the KVFS
// worlds and the cached DFS world). File handles are opened per operation
// so each op sees the freshly published attribute size.
func applyDPC(p *sim.Proc, cl *dpc.Client, op Op) Result {
	openFile := func() (*dpc.File, error) { return cl.Open(p, 0, op.Path) }
	switch op.Kind {
	case OpCreate:
		_, err := cl.Create(p, 0, op.Path)
		return Result{Err: Classify(err)}
	case OpMkdir:
		return Result{Err: Classify(cl.Mkdir(p, 0, op.Path))}
	case OpWrite:
		f, err := openFile()
		if err != nil {
			return Result{Err: Classify(err)}
		}
		err = f.Write(p, 0, op.Off, Pattern(op.Idx, op.Off, op.Len), op.Direct)
		return Result{Err: Classify(err)}
	case OpRead:
		f, err := openFile()
		if err != nil {
			return Result{Err: Classify(err)}
		}
		data, err := f.Read(p, 0, op.Off, op.Len, op.Direct)
		return Result{Err: Classify(err), Data: data}
	case OpTruncate:
		f, err := openFile()
		if err != nil {
			return Result{Err: Classify(err)}
		}
		return Result{Err: Classify(f.Truncate(p, 0))}
	case OpUnlink:
		return Result{Err: Classify(cl.Unlink(p, 0, op.Path))}
	case OpRename:
		return Result{Err: Classify(cl.Rename(p, 0, op.Path, op.Path2))}
	case OpFsync:
		f, err := openFile()
		if err != nil {
			return Result{Err: Classify(err)}
		}
		return Result{Err: Classify(f.Sync(p, 0))}
	case OpStat:
		st, err := cl.StatPath(p, 0, op.Path)
		if err != nil {
			return Result{Err: Classify(err)}
		}
		return Result{Size: st.Size, IsDir: st.Mode == kvfs.ModeDir}
	case OpReaddir:
		path := op.Path
		if path == "" {
			path = "/"
		}
		ents, err := cl.Readdir(p, 0, path)
		if err != nil {
			return Result{Err: Classify(err)}
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name
		}
		return Result{Names: sortedCopy(names)}
	}
	panic("check: unknown op kind")
}

// ---- local ext4-style world ----

func newLocalWorld(name string) *World {
	m := model.NewMachine(model.Default())
	dev := ssd.New(m.Eng, model.Default().SSD)
	cfg := localfs.DefaultConfig()
	// Small page cache: eviction write-back is part of what's under test.
	cfg.PageCachePages = 64
	fs := localfs.New(m, dev, cfg)

	lookup := func(p *sim.Proc, path string) (uint64, error) { return fs.Lookup(p, path) }

	return &World{
		name: name,
		caps: Caps{
			Buffered: true,
			Direct:   true,
			Holes:    true, // sparse files are first-class on ext4
			Mkdir:    true,
			Unlink:   true,
			Truncate: true,
			Fsync:    true,
			MaxFile:  96 * 1024,
		},
		drive: func(fn func(p *sim.Proc)) {
			m.Eng.Go("check", fn)
			m.Eng.Run()
		},
		apply: func(p *sim.Proc, op Op) Result {
			switch op.Kind {
			case OpCreate:
				_, err := fs.Create(p, op.Path)
				return Result{Err: Classify(err)}
			case OpMkdir:
				_, err := fs.Mkdir(p, op.Path)
				return Result{Err: Classify(err)}
			case OpWrite:
				ino, err := lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				err = fs.Write(p, ino, op.Off, Pattern(op.Idx, op.Off, op.Len), op.Direct)
				return Result{Err: Classify(err)}
			case OpRead:
				ino, err := lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				data, err := fs.Read(p, ino, op.Off, op.Len, op.Direct)
				return Result{Err: Classify(err), Data: data}
			case OpTruncate:
				ino, err := lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				return Result{Err: Classify(fs.Truncate(p, ino))}
			case OpUnlink:
				return Result{Err: Classify(fs.Unlink(p, op.Path))}
			case OpFsync:
				if _, err := lookup(p, op.Path); err != nil {
					return Result{Err: Classify(err)}
				}
				fs.Sync(p) // localfs sync is global; a superset of fsync
				return Result{}
			case OpStat:
				ino, err := lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				a, err := fs.Stat(p, ino)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				return Result{Size: a.Size, IsDir: a.Mode == localfs.ModeDir}
			case OpReaddir:
				path := op.Path
				if path == "" {
					path = "/"
				}
				ents, err := fs.Readdir(p, path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				names := make([]string, len(ents))
				for i, e := range ents {
					names[i] = e.Name
				}
				return Result{Names: sortedCopy(names)}
			}
			panic("check: op " + op.Kind.String() + " not supported by localfs world")
		},
		barrier: func(p *sim.Proc) { fs.Sync(p) },
		fsck:    func(p *sim.Proc) []string { return fs.Fsck().Problems },
		close:   func() { m.Eng.Shutdown() },
	}
}

// ---- raw DFS client worlds (std and opt) ----

func newDFSWorld(name string, optimized bool) *World {
	m := model.NewMachine(model.Default())
	b := dfs.NewBackend(m.Eng, m.Net, dfs.DefaultBackendConfig())
	var cl dfs.Client
	if optimized {
		cl = dfs.NewCore(b, m.Net.NewNode("host-opt"), m.HostCPU, dfs.DefaultCoreCosts())
	} else {
		cl = dfs.NewStdClient(b, m.HostNode, m.HostCPU, dfs.DefaultStdClientConfig())
	}

	return &World{
		name: name,
		caps: Caps{
			Direct:  true,
			Align:   dfs.BlockSize,
			MaxFile: 64 * 1024,
		},
		drive: func(fn func(p *sim.Proc)) {
			m.Eng.Go("check", fn)
			m.Eng.Run()
		},
		apply: func(p *sim.Proc, op Op) Result {
			switch op.Kind {
			case OpCreate:
				_, err := cl.Create(p, op.Path)
				return Result{Err: Classify(err)}
			case OpWrite:
				ino, _, err := cl.Lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				err = cl.Write(p, ino, op.Off, Pattern(op.Idx, op.Off, op.Len))
				return Result{Err: Classify(err)}
			case OpRead:
				ino, size, err := cl.Lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				// The raw clients have no page cache; EOF clamping is the
				// client wrapper's job (as the kernel clamps before issuing).
				if op.Off >= size {
					return Result{}
				}
				n := op.Len
				if max := size - op.Off; uint64(n) > max {
					n = int(max)
				}
				data, err := cl.Read(p, ino, op.Off, n)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				if len(data) > n {
					data = data[:n]
				}
				return Result{Data: data}
			case OpStat:
				_, size, err := cl.Lookup(p, op.Path)
				if err != nil {
					return Result{Err: Classify(err)}
				}
				return Result{Size: size}
			}
			panic("check: op " + op.Kind.String() + " not supported by dfs world")
		},
		close: func() { m.Eng.Shutdown() },
	}
}
