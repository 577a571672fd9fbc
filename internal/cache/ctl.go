package cache

import (
	"dpc/internal/bufpool"
	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
	"dpc/internal/wal"
)

// Backend is where flushed pages go and where prefetched pages come from:
// on the DPU this is KVFS or the DFS client stack.
type Backend interface {
	// ReadPage fetches one page; ok=false when the page does not exist.
	ReadPage(p *sim.Proc, ino, lpn uint64, pageSize int) ([]byte, bool)
	// WritePage persists one page. pageSize is the cache's page size, so
	// the backend can derive the byte offset (lpn*pageSize) even when the
	// payload is shorter than a page, and clamp the write-back to the
	// file's true EOF rather than extending it to the page boundary.
	// A non-nil error leaves the page dirty in the cache: the ctl retries
	// on later passes and enters degraded mode if failures persist.
	// The backend must not retain data: it is a pooled buffer the ctl
	// recycles as soon as WritePage returns.
	WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error
}

// RangeBackend is implemented by backends that can fetch a run of pages in
// one operation; the prefetcher uses it to amortize per-request costs over
// the whole window.
type RangeBackend interface {
	// ReadPageRange returns up to n pages starting at lpn; short or nil
	// results mean EOF. The ctl DMA-writes each page into the cache and
	// retains none, so the pages may be sub-slices of one read buffer.
	ReadPageRange(p *sim.Proc, ino, lpn uint64, n, pageSize int) [][]byte
}

// Policy selects the clean-page replacement policy.
type Policy int

const (
	// PolicySecondChance is CLOCK with reference bits: recently hit pages
	// get a second pass before eviction.
	PolicySecondChance Policy = iota
	// PolicyFIFO evicts in clock-hand order regardless of recency.
	PolicyFIFO
)

// CtlConfig tunes the control plane.
type CtlConfig struct {
	Policy Policy

	PrefetchEnabled bool
	PrefetchDepth   int // pages fetched ahead once a stream is detected
	// AdaptivePrefetch doubles a stream's window on each subsequent miss
	// (up to MaxPrefetchDepth); disable to hold the window at
	// PrefetchDepth (used by the prefetch-depth ablation).
	AdaptivePrefetch bool
	FlushEnabled     bool
}

// DefaultCtlConfig returns the experiments' defaults.
func DefaultCtlConfig() CtlConfig {
	return CtlConfig{PrefetchEnabled: true, PrefetchDepth: 16, AdaptivePrefetch: true, FlushEnabled: true}
}

// Ctl is the DPU-resident cache control plane: fill.go, flush.go,
// prefetch.go and journal.go. Every access to the meta area goes over PCIe
// (DMA reads of bucket chunks, atomics on lock words), and page movement
// between host cache and DPU is explicit DMA.
type Ctl struct {
	m       *model.Machine
	L       Layout
	cfg     CtlConfig
	backend Backend

	// pool holds the page buffers that must survive a park (flush and
	// journal pulls); everything else is decoded from a DMA view.
	pool *bufpool.Pool

	hands []int // per-bucket clock hands for replacement
	// held[i] is set while a process of this control plane holds entry i's
	// lock (lock sets it; unlock clears it and wakes released[i], made by the
	// first settle parked on i). Only settle reads it; a host-held lock is not in it.
	held     []bool
	released []*sim.Cond
	streams  map[uint64][]*stream
	inflight map[[2]uint64]bool // prefetches in flight

	// writes[ino] counts the backend writes and truncates of ino that have
	// completed (NoteWrite), flushed[{ino, lpn}] the write-backs of that page
	// that have landed; a fill compares their sum (seq) before and after its
	// read. A buffered write reaches the backend only by its flush, so the
	// flush is what a fill racing it must see.
	writes  map[uint64]uint64
	flushed map[[2]uint64]uint64

	stopped bool

	// Published as cache.ctl.* when obs is on; the two failure counters only
	// by SetFaults, so fault-free metric snapshots keep their exact key set.
	Flushes    stats.Counter
	Evictions  stats.Counter
	Prefetches stats.Counter
	Fills      stats.Counter
	// Failure-path counters: backend flush/fill errors and degraded-mode
	// transitions. Nonzero only when the backend fails (injected or real).
	FlushErrs       stats.Counter
	FillErrs        stats.Counter
	DegradedEntries stats.Counter
	DegradedExits   stats.Counter

	// faults is consulted around backend calls; nil means no injection.
	faults *fault.Injector
	// degraded mirrors the header's degraded flag: set after
	// degradedThreshold consecutive backend flush failures, cleared by the
	// first flush that lands. While set, the host routes writes around the
	// cache and the DPU read path stops filling (see cache.Host.Degraded
	// and dispatch).
	degraded   bool
	flushFails int

	// wal, when attached, is the durability journal: SyncIno acknowledges
	// fsync by group-committing the inode's dirty pages into the log instead
	// of writing them through to the backend (the flush daemon still retires
	// them lazily). walGens carries the per-inode generation stamp bumped by
	// metadata ops that invalidate journaled pages (truncate, unlink), so
	// replay can skip records that predate them. ckpting serializes log
	// compaction: a checkpoint must settle every dirty page into the backend
	// before it invalidates prior records, so journal commits that could
	// interleave with that window wait on ckptDone and re-run (see
	// journalIno).
	wal      *wal.Log
	walGens  map[uint64]uint64
	ckpting  bool
	ckptSeq  uint64
	ckptDone *sim.Cond

	// logs[i] is the DPU's note on entry i, made by the journal attempt that
	// stored StatusLogged in it (tickets numbers the attempts) and cleared by
	// every other DPU status store (setStatus). journaling holds the inodes
	// with a journal pass running; a second fsync of one waits on
	// journalDone (see journalIno).
	logs        []logNote
	tickets     uint64
	journaling  map[uint64]bool
	journalDone *sim.Cond

	// o is nil when obs is disabled; it also takes the flush-join and settle
	// wait attribution. oDegraded is registered by SetFaults.
	o         *obs.Obs
	oDegraded *obs.Gauge
}

// SetFaults attaches a fault injector to the ctl's backend call sites and
// registers the failure metrics.
func (c *Ctl) SetFaults(in *fault.Injector) {
	c.faults = in
	if in == nil {
		return
	}
	c.o.Publish("cache.ctl.flush_errs", c.FlushErrs.Loc())
	c.o.Publish("cache.ctl.fill_errs", c.FillErrs.Loc())
	c.oDegraded = c.o.Gauge("cache.ctl.degraded")
}

// Degraded reports whether the cache is currently in degraded mode.
func (c *Ctl) Degraded() bool { return c.degraded }

// SetWAL attaches the write-ahead log. With a WAL attached, SyncIno
// journals instead of flushing, and metadata ops must call BumpGen before
// destroying journaled state.
func (c *Ctl) SetWAL(l *wal.Log) {
	c.wal = l
	if l != nil {
		c.walGens = map[uint64]uint64{}
		c.ckptDone = sim.NewCond(c.m.Eng, "wal-ckpt")
		c.logs = make([]logNote, c.L.Total)
		c.journaling = map[uint64]bool{}
		c.journalDone = sim.NewCond(c.m.Eng, "wal-inode")
	}
}

// WAL returns the attached log (nil if none).
func (c *Ctl) WAL() *wal.Log { return c.wal }

// Stop makes the flush daemon exit after its current sleep, letting
// Engine.Run drain. (Without it the daemon's periodic wakeups keep the
// event heap non-empty forever.)
func (c *Ctl) Stop() { c.stopped = true }

// SetBackend swaps the flush/fill backend. Used by tests and the torture
// harness to inject faulty or instrumented backends under a live cache.
func (c *Ctl) SetBackend(b Backend) { c.backend = b }

// NewCtl creates the control plane and starts the flush daemon.
func NewCtl(m *model.Machine, l Layout, backend Backend, cfg CtlConfig) *Ctl {
	c := &Ctl{
		m:        m,
		L:        l,
		cfg:      cfg,
		backend:  backend,
		pool:     bufpool.New(),
		hands:    make([]int, l.Buckets),
		held:     make([]bool, l.Total),
		released: make([]*sim.Cond, l.Total),
		streams:  map[uint64][]*stream{},
		inflight: map[[2]uint64]bool{},
		writes:   map[uint64]uint64{},
		flushed:  map[[2]uint64]uint64{},
		o:        m.Obs,
	}
	c.o.Publish("cache.ctl.flushes", c.Flushes.Loc())
	c.o.Publish("cache.ctl.evictions", c.Evictions.Loc())
	c.o.Publish("cache.ctl.prefetches", c.Prefetches.Loc())
	c.o.Publish("cache.ctl.fills", c.Fills.Loc())
	if cfg.FlushEnabled {
		m.Eng.Go("cache-flushd", c.flushDaemon)
	}
	return c
}

// bucketBuf is the stack scratch readBucket's callers decode into; a bucket
// with more entries than it holds spills to the heap.
type bucketBuf [32]Entry

// readBucket DMA-reads one bucket's meta chunk (a single DMA) and decodes
// it into buf[:0].
func (c *Ctl) readBucket(p *sim.Proc, bucket int, buf *bucketBuf) []Entry {
	lo, hi := c.L.BucketEntries(bucket)
	raw := c.m.PCIe.DMAReadView(p, c.m.HostMem, c.L.EntryAddr(lo), (hi-lo)*EntrySize, "cache-meta")
	out := buf[:0]
	for i := 0; i < hi-lo; i++ {
		out = append(out, DecodeEntry(raw[i*EntrySize:(i+1)*EntrySize]))
	}
	return out
}

// indexOf returns the position of <ino, lpn> among a bucket's entries other
// than skip, or -1. A fill claim (StatusInvalid) counts as present.
func indexOf(entries []Entry, ino, lpn uint64, skip int) int {
	for k, e := range entries {
		if k != skip && e.Status != StatusFree && e.Ino == ino && e.LPN == lpn {
			return k
		}
	}
	return -1
}

// anyIno makes an inode filter (scanDirty, take, settle) match every inode.
const anyIno = ^uint64(0)

// dirtyMask selects the statuses of a page the backend does not hold yet,
// journaled or not: what write-back, checkpoint and reclaim flush.
const dirtyMask = 1<<StatusDirty | 1<<StatusLogged

// is reports whether e's status is in mask (bit s for status s) and, unless
// ino is anyIno, e belongs to ino.
func (e Entry) is(mask uint32, ino uint64) bool {
	return 1<<e.Status&mask != 0 && (ino == anyIno || e.Ino == ino)
}

// lock acquires an entry's lock word with a PCIe CAS, retrying while the
// host holds it. Returns false if the entry cannot be locked quickly: unlike
// the host side (Host.acquire), the DPU's lock is bounded, and its callers
// either are best-effort (the daemon pass, fill, eviction, reclaim: the entry
// is left for a later pass or the data goes back inline) or go through settle.
func (c *Ctl) lock(p *sim.Proc, i int, kind uint32) bool {
	a := c.L.EntryAddr(i) + offLock
	for attempt := 0; attempt < 8; attempt++ {
		if c.m.PCIe.AtomicCAS32(p, c.m.HostMem, a, LockNone, kind, "cache-lock") {
			c.held[i] = true
			return true
		}
	}
	return false
}

// unlock releases an entry lock with a PCIe atomic store and wakes the settle
// callers parked on it.
func (c *Ctl) unlock(p *sim.Proc, i int) {
	c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.EntryAddr(i)+offLock, LockNone, "cache-unlock")
	c.held[i] = false
	if w := c.released[i]; w != nil {
		w.Broadcast()
	}
}

// take is the DPU side of the entry protocol (Host.acquire is the host's):
// lock entry i for kind, then re-check by one meta DMA that its status is
// still in mask and, unless ino is anyIno, it belongs to ino. took: the
// caller holds the lock on e. gone: e did not match and is unlocked again.
// Neither: the lock stayed busy.
func (c *Ctl) take(p *sim.Proc, i int, kind, mask uint32, ino uint64) (e Entry, took, gone bool) {
	if !c.lock(p, i, kind) {
		return Entry{}, false, false
	}
	if e = c.readEntryRemote(p, i); !e.is(mask, ino) {
		c.unlock(p, i)
		return e, false, true
	}
	return e, true, false
}

// setStatus updates an entry's status field from the DPU and drops the
// entry's journal note: whatever the DPU stores, the note's attempt no
// longer speaks for the entry (journalAttempt notes a StatusLogged after).
func (c *Ctl) setStatus(p *sim.Proc, i int, s uint32) {
	c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.EntryAddr(i)+offStatus, s, "cache-status")
	if c.logs != nil {
		c.logs[i] = logNote{}
	}
}

// readEntryRemote DMA-reads one meta entry (the DPU cannot touch host
// memory for free).
func (c *Ctl) readEntryRemote(p *sim.Proc, i int) Entry {
	return DecodeEntry(c.m.PCIe.DMAReadView(p, c.m.HostMem, c.L.EntryAddr(i), EntrySize, "cache-meta-r"))
}
