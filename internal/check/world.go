package check

import (
	"cmp"
	"fmt"
	"time"

	"dpc"
	"dpc/internal/cache"
	"dpc/internal/dfs"
	"dpc/internal/fault"
	"dpc/internal/kvfs"
	"dpc/internal/localfs"
	"dpc/internal/sim"
	"dpc/internal/world"
)

// World is one stack under torture: the reference world its row builds,
// named after the row, with the generator mask the row gives it. Apply,
// Settle, Barrier and Fsck run inside a sim process started by Drive; Stop
// tears the simulation down.
type World struct {
	*world.World
	Caps  Caps // what the stack supports; the generator is masked to it
	clamp bool // reads are clamped to EOF here (the host DFS clients)
}

// Drive runs fn as a simulated application thread to completion.
func (w *World) Drive(fn func(p *sim.Proc)) {
	if w.Sys != nil {
		w.Sys.Drive(fn) // a flush daemon never lets the engine drain
		return
	}
	w.M.Eng.Go("check", fn)
	w.M.Eng.Run()
}

// Apply executes one trace operation on the stack's file surface. An op on
// a file looks the file up first, so it sees the freshly published size; on
// the host DFS clients, which have no page cache, that size clamps a read to
// EOF as the kernel clamps before it issues one.
func (w *World) Apply(p *sim.Proc, op Op) Result {
	var data []byte
	onFile := func(do func(ino, size uint64) error) Result {
		ino, size, err := w.FS.Lookup(p, 0, op.Path)
		if err == nil {
			err = do(ino, size)
		}
		return Result{Err: Classify(err), Data: data}
	}
	switch op.Kind {
	case OpCreate:
		_, err := w.FS.Create(p, 0, op.Path)
		return Result{Err: Classify(err)}
	case OpMkdir:
		return Result{Err: Classify(w.FS.Mkdir(p, 0, op.Path))}
	case OpUnlink:
		return Result{Err: Classify(w.FS.Unlink(p, 0, op.Path))}
	case OpRename:
		return Result{Err: Classify(w.FS.Rename(p, 0, op.Path, op.Path2))}
	case OpStat:
		size, dir, err := w.FS.Stat(p, 0, op.Path)
		return Result{Err: Classify(err), Size: size, IsDir: dir}
	case OpReaddir:
		names, err := w.FS.Readdir(p, 0, cmp.Or(op.Path, "/"))
		return Result{Err: Classify(err), Names: sortedCopy(names)}
	case OpWrite:
		return onFile(func(ino, _ uint64) error {
			return w.FS.Write(p, 0, ino, op.Off, Pattern(op.Idx, op.Off, op.Len), op.Direct)
		})
	case OpRead:
		return onFile(func(ino, size uint64) error {
			n := op.Len
			if w.clamp {
				if op.Off >= size {
					return nil
				}
				n = min(n, int(size-op.Off))
			}
			buf := make([]byte, n)
			n, err := w.FS.ReadInto(p, 0, ino, op.Off, buf, op.Direct)
			data = buf[:n]
			return err
		})
	case OpTruncate:
		return onFile(func(ino, _ uint64) error { return w.FS.Truncate(p, 0, ino) })
	case OpFsync:
		return onFile(func(ino, _ uint64) error { return w.FS.Fsync(p, 0, ino) })
	}
	panic("check: unknown op kind")
}

// Settle idles long enough for the hybrid cache's flush daemon to run a
// few passes.
func (w *World) Settle(p *sim.Proc) {
	if w.Ctl != nil {
		p.Sleep(5 * time.Millisecond)
	}
}

// Barrier flushes all dirty state to the backend.
func (w *World) Barrier(p *sim.Proc) {
	switch {
	case w.Ext4 != nil:
		w.Ext4.Sync(p)
	case w.Ctl != nil:
		if err := w.Cl.Sync(p, 0); err != nil {
			panic(fmt.Sprintf("check: barrier failed: %v", err))
		}
	}
}

// Fsck runs the stack's offline consistency checks and returns their
// problems. Only meaningful after Barrier (dirty cache pages must be on the
// backend). The backend's own fsck runs where it has one, then the hybrid
// cache's meta table: the run is quiescent here, so a lock word still held
// or a fill claim still pending was leaked by the entry protocol — as was an
// entry the control plane still records as its own, on which the next fsync
// would park for good, one still noted by a journal attempt that neither
// landed nor was undone, or a page left in the in-flight read table.
func (w *World) Fsck() []string {
	if w.Ext4 != nil {
		return w.Ext4.Fsck().Problems
	}
	var probs []string
	if w.Sys != nil && w.Sys.KVFS != nil {
		probs = kvfs.Fsck(w.Sys.KVCluster).Problems
	}
	if w.Ctl != nil {
		probs = append(probs, cache.Fsck(w.M.HostMem, w.Ctl.L)...)
		if i := w.Ctl.HeldEntry(); i >= 0 {
			probs = append(probs, fmt.Sprintf("cache: control plane still records entry %d's lock as held", i))
		}
		if n := w.Ctl.InflightReads(); n != 0 {
			probs = append(probs, fmt.Sprintf("cache: %d pages still in the in-flight read table", n))
		}
		probs = append(probs, w.journalLeaks()...)
	}
	return probs
}

// journalLeaks reports an entry of the hybrid cache still noted by a journal
// attempt that neither landed nor was undone. That holds whenever no fsync
// is in flight — between two ops of the sequential driver too — and
// write-back clears the notes, so the harness checks it right after the last
// op, before the settle and barrier that precede Fsck, as well as in Fsck.
func (w *World) journalLeaks() []string {
	if w.Ctl == nil {
		return nil
	}
	if i := w.Ctl.PendingLog(); i >= 0 {
		return []string{fmt.Sprintf("cache: entry %d still carries an unfinished journal attempt", i)}
	}
	return nil
}

// Disarm stops fault injection so the final settle/barrier/verify runs
// against a healthy stack. No-op on fault-free worlds.
func (w *World) Disarm() {
	if w.Sys != nil {
		w.Sys.Faults.Disarm()
	}
}

// stackSpec is one row of the stack table: a DPC system, described by the
// options its mutate sets, or a baseline the DPC stacks are compared with,
// which base builds — no DPC system, hence no injector hooks and no obs
// handle.
type stackSpec struct {
	name   string
	caps   Caps
	clamp  bool
	mutate func(*dpc.Options)
	base   func() *world.World
}

// inlineMaxForTorture is the InlineMax of the inline stacks; 512 keeps the
// link-cost cutover (389 B on the default link) strictly inside it so
// torture traces exercise both sides of the boundary.
const inlineMaxForTorture = 512

// tortureOptions sets a DPC row's options: the service behind the offloaded
// client, the hybrid cache's size (0 leaves only direct I/O) in 16 buckets,
// the inline small-I/O limit (0 is DMA only) and whether fsync journals
// through the write-ahead log.
func tortureOptions(service string, cachePages, inlineMax int, wal bool) func(*dpc.Options) {
	return func(o *dpc.Options) {
		o.EnableKVFS, o.EnableDFS = service == "kvfs", service == "dfs"
		o.CachePages, o.CacheBuckets = cachePages, 16
		o.NvmeFS.InlineMax = inlineMax
		o.WAL.Enabled = wal
	}
}

// The rows' generator masks; cached adds what a hybrid cache brings.
var (
	kvfsCaps  = Caps{Direct: true, Mkdir: true, Unlink: true, Rename: true, Truncate: true, MaxFile: 96 * 1024}
	dfsCaps   = Caps{Direct: true, Align: dfs.BlockSize, MaxFile: 64 * 1024}
	localCaps = Caps{Buffered: true, Direct: true, Holes: true, Mkdir: true, Unlink: true, Truncate: true, Fsync: true, MaxFile: 96 * 1024}
)

func cached(c Caps) Caps {
	c.Buffered, c.Fsync = true, true
	return c
}

// stacks is every stack the harness can instantiate, in report order; the
// name lists, the constructors' error messages and the crash suite's world
// all derive from it. The differential suite must not be able to tell the
// feature rows apart: inline is a transport optimization, the WAL a different
// way to keep the same fsync promise (and the only place the fault suite's
// SiteWAL rules fire), and kvfs-inline-wal runs both behind one cache. The
// caches are deliberately small (128 pages, 16 buckets; localfs 64 pages) to
// keep eviction and write-back pressure high: eviction write-back is part of
// what is under test.
var stacks = []stackSpec{
	{name: "kvfs-direct", caps: kvfsCaps, mutate: tortureOptions("kvfs", 0, 0, false)},
	{name: "kvfs-cache", caps: cached(kvfsCaps), mutate: tortureOptions("kvfs", 128, 0, false)},
	{name: "kvfs-inline", caps: cached(kvfsCaps), mutate: tortureOptions("kvfs", 128, inlineMaxForTorture, false)},
	{name: "kvfs-wal", caps: cached(kvfsCaps), mutate: tortureOptions("kvfs", 128, 0, true)},
	{name: "kvfs-inline-wal", caps: cached(kvfsCaps), mutate: tortureOptions("kvfs", 128, inlineMaxForTorture, true)},
	{name: "localfs", caps: localCaps, base: func() *world.World {
		return world.NewExt4(func(c *localfs.Config) { c.PageCachePages = 64 })
	}},
	{name: "dfs-std", caps: dfsCaps, clamp: true, base: func() *world.World { return world.NewDFSHost(false) }},
	{name: "dfs-opt", caps: dfsCaps, clamp: true, base: func() *world.World { return world.NewDFSHost(true) }},
	{name: "dfs-dpc", caps: cached(dfsCaps), mutate: tortureOptions("dfs", 128, 0, false)},
}

// world builds the row's stack; extra changes a DPC row's options further
// (a fault schedule, an obs handle) and may be nil.
func (s stackSpec) world(extra func(*dpc.Options)) *World {
	var ww *world.World
	if s.base != nil {
		ww = s.base()
	} else {
		ww = world.NewDPC(s.name, func(o *dpc.Options) {
			s.mutate(o)
			if extra != nil {
				extra(o)
			}
		})
	}
	ww.Name = s.name
	return &World{World: ww, Caps: s.caps, clamp: s.clamp}
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
		if !dpcOnly || s.base == nil {
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
	return s.world(nil), nil
}

// NewFaultWorld instantiates a stack with the deterministic torture fault
// schedule derived from seed. The same (name, seed) always produces the
// same injected faults at the same virtual times.
func NewFaultWorld(name string, seed int64) (*World, error) {
	s, ok := stackByName(name)
	if !ok || s.base != nil {
		return nil, fmt.Errorf("check: stack %q does not support fault injection (have %v)", name, FaultStackNames())
	}
	rules := fault.TortureSchedule(seed)
	return s.world(func(o *dpc.Options) { o.Faults = rules }), nil
}
