package cache

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

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
	FlushBatch   int // max dirty pages flushed per daemon pass
	FlushWorkers int // write-back window: dirty pages flushed concurrently
	Policy       Policy

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
	return CtlConfig{FlushBatch: 256, FlushWorkers: 32, PrefetchEnabled: true, PrefetchDepth: 16, AdaptivePrefetch: true, FlushEnabled: true}
}

type stream struct {
	lastLPN uint64
	streak  int
	// depth is the adaptive prefetch window: it doubles every time the
	// stream outruns the prefetched pages (i.e. on every subsequent miss),
	// up to MaxPrefetchDepth. Deep windows are what produce the paper's
	// ~100x single-thread sequential-read boost.
	depth int
}

// MaxPrefetchDepth bounds the adaptive window.
const MaxPrefetchDepth = 256

// Ctl is the DPU-resident cache control plane. Every access to the meta
// area goes over PCIe (DMA reads of bucket chunks, atomics on lock words),
// and page movement between host cache and DPU is explicit DMA.
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
	// degraded mirrors the header flag at Base+16: set after
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

	// o is nil when obs is disabled; po is non-nil only in profiling mode
	// (flush-join wait attribution). oDegraded is registered by SetFaults.
	o         *obs.Obs
	po        *obs.Obs
	oDegraded *obs.Gauge
}

// degradedThreshold is how many consecutive backend flush failures flip
// the cache into degraded mode.
const degradedThreshold = 4

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
	}
}

// HasWAL reports whether a write-ahead log is attached.
func (c *Ctl) HasWAL() bool { return c.wal != nil }

// WAL returns the attached log (nil if none).
func (c *Ctl) WAL() *wal.Log { return c.wal }

// noteFlushFailure advances the failure streak and enters degraded mode at
// the threshold, publishing the flag in the shared header word so the host
// data plane sees it without a control round-trip.
func (c *Ctl) noteFlushFailure(p *sim.Proc) {
	c.flushFails++
	if !c.degraded && c.flushFails >= degradedThreshold {
		c.degraded = true
		c.DegradedEntries.Inc()
		c.oDegraded.Set(1)
		// Entering degraded mode is a fault-path event: pin the current span
		// tree for the telemetry flight recorder.
		c.m.Obs.Current(p).Pin()
		c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.Base+16, 1, "cache-degraded")
	}
}

// noteFlushSuccess resets the streak; the first successful write-back after
// a failure run ends degraded mode.
func (c *Ctl) noteFlushSuccess(p *sim.Proc) {
	c.flushFails = 0
	if c.degraded {
		c.degraded = false
		c.DegradedExits.Inc()
		c.oDegraded.Set(0)
		c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.Base+16, 0, "cache-degraded")
	}
}

// Stop makes the flush daemon exit after its current sleep, letting
// Engine.Run drain. (Without it the daemon's periodic wakeups keep the
// event heap non-empty forever.)
func (c *Ctl) Stop() { c.stopped = true }

// SetBackend swaps the flush/fill backend. Used by tests and the torture
// harness to inject faulty or instrumented backends under a live cache.
func (c *Ctl) SetBackend(b Backend) { c.backend = b }

// NewCtl creates the control plane and starts the flush daemon.
func NewCtl(m *model.Machine, l Layout, backend Backend, cfg CtlConfig) *Ctl {
	if cfg.FlushWorkers <= 0 {
		cfg.FlushWorkers = DefaultCtlConfig().FlushWorkers
	}
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
		o:        m.Obs,
		po:       m.Obs.Prof(),
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

// HeldEntry returns an entry whose lock this control plane's processes hold,
// or -1; at a quiesce point, -1.
func (c *Ctl) HeldEntry() int { return slices.Index(c.held, true) }

// setStatus updates an entry's status field from the DPU.
func (c *Ctl) setStatus(p *sim.Proc, i int, s uint32) {
	c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.EntryAddr(i)+offStatus, s, "cache-status")
}

// readEntryRemote DMA-reads one meta entry (the DPU cannot touch host
// memory for free).
func (c *Ctl) readEntryRemote(p *sim.Proc, i int) Entry {
	return DecodeEntry(c.m.PCIe.DMAReadView(p, c.m.HostMem, c.L.EntryAddr(i), EntrySize, "cache-meta-r"))
}

// flushDaemon periodically scans the meta area and writes dirty pages back
// to the backend (§3.3 "cache flushing").
func (c *Ctl) flushDaemon(p *sim.Proc) {
	for !c.stopped {
		p.Sleep(c.m.Cfg.Costs.FlushInterval)
		if c.stopped {
			return
		}
		c.FlushPass(p, c.cfg.FlushBatch)
	}
}

// FlushPass scans the whole meta area (chunked DMA reads), collects dirty
// entries and flushes up to maxPages of them with a pool of parallel worker
// processes (a serial flusher could never keep up with write-back load).
// It returns the number flushed and the first backend error encountered
// (pages whose write-back failed stay dirty for a later pass).
func (c *Ctl) FlushPass(p *sim.Proc, maxPages int) (int, error) {
	s := c.o.Begin(p, "cache.flush_pass")
	n, err := c.flushPass(p, maxPages)
	s.End(p)
	return n, err
}

func (c *Ctl) flushPass(p *sim.Proc, maxPages int) (int, error) {
	dirty := c.scanDirty(p, anyIno, maxPages)
	if len(dirty) == 0 {
		return 0, nil
	}
	return c.flushWindow(p, dirty, c.flushOne)
}

// anyIno makes scanDirty select dirty entries of every inode.
const anyIno = ^uint64(0)

// scanDirty is the control plane's meta-table scan (§3.3): it DMA-reads the
// meta area in 128-entry chunks and returns the indices of the dirty entries
// of inode ino (anyIno: of every inode), stopping — and issuing no further
// DMA — once limit are collected. Each chunk is a view decoded before the next
// DMA parks the scanner, and only the fields the filter tests are decoded.
// The scan is what the modelled DPU does and its PCIe traffic is part of the
// model (Total*EntrySize bytes per full pass); see DESIGN.md for why it is
// not replaced by a DPU-resident dirty index.
func (c *Ctl) scanDirty(p *sim.Proc, ino uint64, limit int) []int {
	var dirty []int
	const chunkEntries = 128
	le := binary.LittleEndian
	for base := 0; base < c.L.Total && len(dirty) < limit; base += chunkEntries {
		n := chunkEntries
		if base+n > c.L.Total {
			n = c.L.Total - base
		}
		raw := c.m.PCIe.DMAReadView(p, c.m.HostMem, c.L.EntryAddr(base), n*EntrySize, "cache-scan")
		for k := 0; k < n && len(dirty) < limit; k++ {
			e := raw[k*EntrySize : (k+1)*EntrySize]
			if le.Uint32(e[offStatus:]) == StatusDirty && (ino == anyIno || le.Uint64(e[offIno:]) == ino) {
				dirty = append(dirty, base+k)
			}
		}
	}
	return dirty
}

// flushWindow writes the given entries back with a bounded pool of worker
// processes (FlushWorkers wide; a serial flusher could never keep up with
// write-back load) and returns how many flushed. flush is the per-entry
// attempt; it reports whether this call flushed the entry.
func (c *Ctl) flushWindow(p *sim.Proc, entries []int, flush func(pp *sim.Proc, i int) (bool, error)) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	workers := c.cfg.FlushWorkers
	if workers > len(entries) {
		workers = len(entries)
	}
	flushed := 0
	next := 0
	remaining := workers
	var firstErr error
	done := sim.NewCond(c.m.Eng, "flush-join")
	for w := 0; w < workers; w++ {
		c.m.Eng.Go("cache-flush-w", func(pp *sim.Proc) {
			for next < len(entries) {
				i := entries[next]
				next++
				ok, err := flush(pp, i)
				if ok {
					flushed++
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
			remaining--
			if remaining == 0 {
				done.Broadcast()
			}
		})
	}
	if remaining > 0 {
		waitFrom := p.Now()
		for remaining > 0 {
			done.Wait(p)
		}
		c.po.Attr(p, obs.CompWait, "cache.flush_join", waitFrom, p.Now())
	}
	return flushed, firstErr
}

// FlushIno flushes every dirty page belonging to one inode (fsync; anyIno,
// the checkpoint's use, selects every inode's): a full meta scan selecting
// only that inode's entries. Unlike the daemon's best-effort pass, fsync
// must not return while any of the inode's pages is still dirty or mid-flush
// elsewhere — a direct read right after fsync would otherwise miss data a
// concurrent daemon flush has snapshotted but not yet written to the backend
// — so every entry is settled (see settle). Returns the number flushed, and
// the backend's error if it kept failing.
//
// Fsync contract. FlushIno is the synchronous durability path: success
// means every one of the inode's pages reached the backend. SyncIno is the
// journaled path: success means every dirty page is either in the backend
// or committed to the WAL. In degraded mode SyncIno falls back to FlushIno,
// so a caller never gets a successful fsync while any journaled-but-
// unflushed page sits behind a failing backend — the fallback fully lands
// or reports the backend error (pinned by TestDegradedFsyncReportsError).
func (c *Ctl) FlushIno(p *sim.Proc, ino uint64) (int, error) {
	// Write the pages back as a concurrent window rather than one blocking
	// flushOne at a time; each worker settles its entry.
	return c.flushWindow(p, c.scanDirty(p, ino, c.L.Total), func(pp *sim.Proc, i int) (bool, error) {
		return c.settle(p, pp, i, ino, c.tryFlush)
	})
}

// settle is the must-settle rule of the DPU side, written once for fsync's
// write-back, the journal snapshot and the checkpoint: repeat try on entry i
// until it takes the entry (took), the entry is observed no longer a dirty
// page of ino (anyIno: of any inode) — by try under the lock (gone), or here
// by re-reading it after a turn that did not get it: a concurrent flusher
// marks it clean only after its backend write lands, and the host may have
// replaced it — or the backend has failed eight times (20 µs apart), so a
// failing fsync reports the error with the page still dirty instead of
// livelocking. A turn is a try, unless a sibling process of this control plane
// holds the entry (the daemon keeps its read lock across the whole backend
// write): then it is a park until that process unlocks, at no PCIe atomic,
// shown under joiner p's span when profiling. Only a host-held lock, whose
// release the DPU cannot see, is polled by try's bounded CAS. It reports
// whether this call took the entry. try must not escape: a closure passed
// here lives on its caller's stack.
func (c *Ctl) settle(p, pp *sim.Proc, i int, ino uint64, try func(pp *sim.Proc, i int) (took, gone bool, err error)) (bool, error) {
	fails := 0
	for spins := 0; ; spins++ {
		if spins > 1<<20 {
			panic("cache: settle livelocked on a held entry lock")
		}
		if c.held[i] {
			s := c.po.BeginChild(pp, c.po.Current(p), "cache.settle")
			from := pp.Now()
			if c.released[i] == nil {
				c.released[i] = sim.NewCond(c.m.Eng, "cache-release")
			}
			for c.held[i] {
				c.released[i].Wait(pp)
			}
			c.po.Attr(pp, obs.CompWait, "cache.settle", from, pp.Now())
			s.End(pp)
		} else if took, gone, err := try(pp, i); took || gone {
			return took, nil
		} else if err != nil {
			if fails++; fails >= 8 {
				return false, err
			}
			pp.Sleep(20 * time.Microsecond)
			continue
		}
		if cur := c.readEntryRemote(pp, i); cur.Status != StatusDirty || (ino != anyIno && cur.Ino != ino) {
			return false, nil
		}
	}
}

// tryFlush is flushOne as a settle attempt. flushOne does not say why it
// flushed nothing, so gone stays false and settle reads the entry itself.
func (c *Ctl) tryFlush(pp *sim.Proc, i int) (took, gone bool, err error) {
	took, err = c.flushOne(pp, i)
	return took, false, err
}

// SyncIno is the fsync entry point when durability may be satisfied by the
// journal: with a WAL attached and the cache healthy it group-commits the
// inode's dirty pages into the log and returns without writing them back
// (the flush daemon retires them lazily; a checkpoint settles them before
// their records are dropped). Without a WAL — or in degraded mode, where
// pages may be stuck dirty behind a failing backend and a journal ack
// would claim durability the flush path cannot deliver — it falls back to
// the synchronous FlushIno, which fully succeeds or reports the error.
func (c *Ctl) SyncIno(p *sim.Proc, ino uint64) (int, error) {
	if c.wal == nil || c.degraded {
		return c.FlushIno(p, ino)
	}
	return c.journalIno(p, ino)
}

// journalIno snapshots the inode's dirty pages over DMA and commits them to
// the WAL as one record batch. Pages stay dirty in the cache. Every entry is
// settled: snapshotted here, or observed clean (a concurrent flush made it
// durable some other way).
//
// Checkpoint interleaving: a checkpoint settles every dirty page and then
// invalidates all prior records. A batch committed with records snapshotted
// before the checkpoint's settle scan but landed after it would ack pages
// the checkpoint neither flushed nor preserved — so any commit that raced a
// checkpoint (ckptSeq moved) is thrown away and the whole pass re-runs
// against the post-checkpoint cache state.
func (c *Ctl) journalIno(p *sim.Proc, ino uint64) (int, error) {
	for attempt := 0; ; attempt++ {
		if n, again, err := c.journalAttempt(p, ino, attempt); !again {
			return n, err
		}
	}
}

// journalAttempt is one snapshot-and-commit pass of journalIno; again=true
// asks for a re-run against the post-checkpoint cache state. The snapshotted
// pages live in pooled buffers that go back on every exit, and only once
// Commit has returned: a follower's records are framed by its group leader.
func (c *Ctl) journalAttempt(p *sim.Proc, ino uint64, attempt int) (n int, again bool, err error) {
	for c.ckpting {
		c.ckptDone.Wait(p)
	}
	seq := c.ckptSeq
	gen := c.walGens[ino]

	var recs []wal.Record
	defer func() {
		for i := range recs {
			c.pool.Put(recs[i].Data)
		}
	}()
	_, err = c.flushWindow(p, c.scanDirty(p, ino, c.L.Total), func(pp *sim.Proc, i int) (bool, error) {
		return c.settle(p, pp, i, ino, func(pp *sim.Proc, i int) (took, gone bool, err error) {
			if !c.lock(pp, i, LockRead) {
				return false, false, nil // a concurrent flush or host write owns the entry
			}
			e := c.readEntryRemote(pp, i)
			if e.Status != StatusDirty || e.Ino != ino {
				// Seen under the lock, so settle needs no second meta read.
				c.unlock(pp, i)
				return false, true, nil
			}
			data := c.pool.Get(c.L.PageSize)
			c.m.PCIe.DMAReadInto(pp, data, c.m.HostMem, c.L.PageAddr(i), "cache-pull")
			c.unlock(pp, i)
			recs = append(recs, wal.Record{Kind: wal.RecPage, Ino: ino, LPN: e.LPN, Gen: gen, Data: data})
			return true, false, nil
		})
	})
	if err != nil || len(recs) == 0 {
		return 0, false, err
	}
	need := 0
	for i := range recs {
		need += wal.RecordSize(len(recs[i].Data))
	}
	if c.wal.NeedCheckpoint(need) {
		// The checkpoint settles our pages into the backend; re-run to
		// observe them clean (or pick up anything re-dirtied since).
		err = c.checkpoint(p)
		return 0, err == nil, err
	}
	if c.ckpting || c.ckptSeq != seq {
		return 0, true, nil
	}
	err = c.wal.Commit(p, recs)
	if err == wal.ErrFull {
		if attempt >= 2 {
			// The batch cannot fit even in an empty log; write through.
			n, err = c.FlushIno(p, ino)
			return n, false, err
		}
		err = c.checkpoint(p)
		return 0, err == nil, err
	}
	if err != nil {
		return 0, false, err
	}
	return len(recs), false, nil
}

// BumpGen journals a generation bump for the inode. Metadata ops that make
// journaled page content stale (truncate, unlink) call it BEFORE mutating
// the backend: replay skips page records older than the inode's final
// generation, so a crash after the op cannot resurrect pre-op pages. An
// error means the bump did not commit and the caller must fail the op.
func (c *Ctl) BumpGen(p *sim.Proc, ino uint64) error {
	if c.wal == nil {
		return nil
	}
	for {
		for c.ckpting {
			c.ckptDone.Wait(p)
		}
		seq := c.ckptSeq
		gen := c.walGens[ino] + 1
		err := c.wal.Commit(p, []wal.Record{{Kind: wal.RecGen, Ino: ino, Gen: gen}})
		if err == wal.ErrFull {
			if err := c.checkpoint(p); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if c.ckpting || c.ckptSeq != seq {
			// The record may have landed pre-bump and been invalidated;
			// commit it again against the fresh log.
			continue
		}
		c.walGens[ino] = gen
		return nil
	}
}

// checkpoint compacts the WAL: settle every dirty page into the backend,
// then bump the log epoch so the (now redundant) records are dropped and
// the append region is reclaimed. Concurrent checkpoints coalesce via the
// ckpting flag; journal commits racing the settle window re-run (see
// journalIno).
func (c *Ctl) checkpoint(p *sim.Proc) error {
	for c.ckpting {
		c.ckptDone.Wait(p)
	}
	c.ckpting = true
	// Every dirty page, settled as fsync settles one inode's: FlushPass skips
	// entries whose lock is held, but a page mid-flush by the daemon may still
	// fail its backend write and stay dirty — dropping its journal record
	// then would lose an acked fsync.
	_, err := c.FlushIno(p, anyIno)
	if err == nil {
		err = c.wal.Checkpoint(p)
	}
	c.ckpting = false
	c.ckptSeq++
	c.ckptDone.Broadcast()
	return err
}

// flushOne safely flushes entry i: read-lock, pull the page to DPU DRAM,
// process, write to the backend, mark clean, unlock. ok=false with a nil
// error means the entry was not ours to flush (lock held, already clean);
// a non-nil error means the backend write failed and the page stays dirty.
func (c *Ctl) flushOne(p *sim.Proc, i int) (bool, error) {
	s := c.o.Begin(p, "cache.flush_page")
	ok, err := c.doFlushOne(p, i)
	s.End(p)
	return ok, err
}

func (c *Ctl) doFlushOne(p *sim.Proc, i int) (bool, error) {
	if !c.lock(p, i, LockRead) {
		return false, nil
	}
	e := c.readEntryRemote(p, i) // state may have changed before lock
	if e.Status != StatusDirty {
		c.unlock(p, i)
		return false, nil
	}
	// Pull the page into DPU DRAM by DMA: it must outlive the backend write,
	// so it lands in a pooled buffer, released once WritePage has returned.
	data := c.pool.Get(c.L.PageSize)
	c.m.PCIe.DMAReadInto(p, data, c.m.HostMem, c.L.PageAddr(i), "cache-pull")
	// Relevant computing (compression, DIF, EC...) happens here on the DPU.
	c.m.DPUExec(p, c.m.Cfg.Costs.DPUFlushPage)
	var err error
	if kind, _, injected := c.faults.At(fault.SiteCacheFlush); injected && kind == fault.KindBackendWriteErr {
		err = fault.Errf(kind, "flush ino %d lpn %d", e.Ino, e.LPN)
	} else {
		err = c.backend.WritePage(p, e.Ino, e.LPN, c.L.PageSize, data)
	}
	c.pool.Put(data)
	if err != nil {
		// Leave the page dirty: a later pass retries it. Persistent
		// failures trip degraded mode via the failure streak.
		c.unlock(p, i)
		c.FlushErrs.Inc()
		c.noteFlushFailure(p)
		return false, err
	}
	c.setStatus(p, i, StatusClean)
	c.unlock(p, i)
	c.Flushes.Inc()
	c.noteFlushSuccess(p)
	return true, nil
}

// FillPage inserts a page into the host cache from the DPU side (read-miss
// fill or prefetch): it claims a free or evictable entry in the page's
// bucket, DMA-writes the data into the corresponding host page, and marks
// the entry clean. Returns the entry index, or -1 if the bucket is
// unreclaimable right now.
func (c *Ctl) FillPage(p *sim.Proc, ino, lpn uint64, data []byte) int {
	s := c.o.Begin(p, "cache.fill")
	idx := c.fillPage(p, ino, lpn, data)
	s.End(p)
	return idx
}

func (c *Ctl) fillPage(p *sim.Proc, ino, lpn uint64, data []byte) int {
	if len(data) != c.L.PageSize {
		panic(fmt.Sprintf("cache: fill size %d != page size %d", len(data), c.L.PageSize))
	}
	c.m.DPUExec(p, c.m.Cfg.Costs.DPUCacheCtl)
	bucket := c.L.BucketOf(ino, lpn)
	lo, _ := c.L.BucketEntries(bucket)
	var buf bucketBuf
	entries := c.readBucket(p, bucket, &buf)

	// Already present (including another fill's pending claim)? Leave it
	// alone. The host-side copy is never staler than the backend — direct
	// writes merge into cached pages and buffered writes land here first —
	// so there is nothing to refresh, and overwriting a dirty entry with
	// backend data would silently lose the buffered writes it holds.
	for k, e := range entries {
		if e.Status != StatusFree && e.Ino == ino && e.LPN == lpn {
			return lo + k
		}
	}

	// Free entry?
	target := -1
	for k, e := range entries {
		if e.Status == StatusFree {
			target = lo + k
			break
		}
	}
	if target < 0 {
		// Evict a clean entry chosen by the bucket's clock hand.
		target = c.evictClean(p, bucket, entries)
		if target < 0 {
			return -1
		}
	}
	if !c.lock(p, target, LockWrite) {
		return -1
	}
	cur := c.readEntryRemote(p, target)
	if cur.Status != StatusFree {
		// Lost the entry to a concurrent claim; this fill is best-effort.
		c.unlock(p, target)
		return -1
	}
	c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+12, ^uint32(0), "cache-free-dec")
	// Claim first, fill second: publish the identity with StatusInvalid
	// (fill pending) BEFORE moving any data, so a concurrent host write of
	// this page sees the claim and updates it in place once the fill's lock
	// drops. Filling first and publishing last leaves a window in which the
	// host, seeing the page as absent, inserts a second entry for it — and
	// duplicate entries mean reads race writes on which copy they touch.
	// The next pointer is immutable after format, so the stale read is safe.
	var eb [EntrySize]byte
	encodeEntry(eb[:], Entry{Lock: LockWrite, Status: StatusInvalid, Next: cur.Next, LPN: lpn, Ino: ino})
	c.m.PCIe.DMAWrite(p, c.m.HostMem, c.L.EntryAddr(target), eb[:], "cache-meta-w")
	// Re-check under the claim: the host may have inserted this page (or a
	// concurrent fill claimed it) between the presence scan above and our
	// claim landing. If so, retract — the other copy is the live one.
	for k, e := range c.readBucket(p, bucket, &buf) {
		if lo+k != target && e.Status != StatusFree && e.Ino == ino && e.LPN == lpn {
			c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+12, 1, "cache-free-inc")
			c.setStatus(p, target, StatusFree)
			c.unlock(p, target)
			return lo + k
		}
	}
	c.m.PCIe.DMAWrite(p, c.m.HostMem, c.L.PageAddr(target), data, "cache-fill")
	c.setStatus(p, target, StatusClean)
	c.unlock(p, target)
	c.Fills.Inc()
	return target
}

// evictClean picks a clean, unlocked entry in the bucket via the clock hand
// and frees it. Under PolicySecondChance, entries with the reference bit
// set are spared once (the bit is cleared remotely) — CLOCK's second
// chance. Returns the freed index or -1.
func (c *Ctl) evictClean(p *sim.Proc, bucket int, entries []Entry) int {
	lo, hi := c.L.BucketEntries(bucket)
	n := hi - lo
	limit := n
	if c.cfg.Policy == PolicySecondChance {
		limit = 2 * n // one extra lap to consume reference bits
	}
	for scanned := 0; scanned < limit; scanned++ {
		k := c.hands[bucket]
		c.hands[bucket] = (k + 1) % n
		if entries[k].Status != StatusClean {
			continue
		}
		if c.cfg.Policy == PolicySecondChance && entries[k].Ref != 0 {
			// Spare it once: clear the bit (a PCIe atomic on the entry's
			// aligned last word, which holds only the ref byte + padding).
			entries[k].Ref = 0
			c.m.PCIe.AtomicStore32(p, c.m.HostMem,
				c.L.EntryAddr(lo+k)+offRef, 0, "cache-ref-clr")
			continue
		}
		i := lo + k
		if !c.lock(p, i, LockWrite) {
			continue
		}
		if c.readEntryRemote(p, i).Status != StatusClean {
			c.unlock(p, i)
			continue
		}
		c.setStatus(p, i, StatusFree)
		c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+12, 1, "cache-free-inc")
		c.unlock(p, i)
		c.Evictions.Inc()
		return i
	}
	return -1
}

// ReclaimBucket handles a host CacheEvict request: make room in the bucket
// that failed, flushing dirty entries if nothing clean is available.
// Returns the number of entries freed.
func (c *Ctl) ReclaimBucket(p *sim.Proc, ino, lpn uint64, want int) int {
	s := c.o.Begin(p, "cache.reclaim")
	freed := c.reclaimBucket(p, ino, lpn, want)
	s.End(p)
	return freed
}

func (c *Ctl) reclaimBucket(p *sim.Proc, ino, lpn uint64, want int) int {
	c.m.DPUExec(p, c.m.Cfg.Costs.DPUCacheCtl)
	bucket := c.L.BucketOf(ino, lpn)
	lo, _ := c.L.BucketEntries(bucket)
	freed := 0
	var buf bucketBuf
	entries := c.readBucket(p, bucket, &buf)
	// First pass: evict clean pages.
	for freed < want {
		if i := c.evictClean(p, bucket, entries); i < 0 {
			break
		}
		freed++
		entries = c.readBucket(p, bucket, &buf)
	}
	// Second pass: flush dirty pages, then free them.
	for k, e := range entries {
		if freed >= want {
			break
		}
		if e.Status != StatusDirty {
			continue
		}
		i := lo + k
		if ok, _ := c.flushOne(p, i); !ok {
			continue
		}
		if !c.lock(p, i, LockWrite) {
			continue
		}
		if c.readEntryRemote(p, i).Status == StatusClean {
			c.setStatus(p, i, StatusFree)
			c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+12, 1, "cache-free-inc")
			freed++
			c.Evictions.Inc()
		}
		c.unlock(p, i)
	}
	return freed
}

// maxStreamsPerIno bounds concurrent per-file stream trackers (analogous to
// per-fd readahead state: many threads may scan one file at different
// offsets).
const maxStreamsPerIno = 64

// NotifyRead feeds the sequential-stream detector; on a detected stream it
// prefetches the following pages into the host cache in the background.
func (c *Ctl) NotifyRead(p *sim.Proc, ino, lpn uint64) {
	if !c.cfg.PrefetchEnabled {
		return
	}
	// Find the stream this miss extends. Until a stream is established the
	// next page must be exactly adjacent; afterwards the detector only
	// sees misses, which jump forward by up to the prefetched window.
	var s *stream
	for _, cand := range c.streams[ino] {
		gap := lpn - cand.lastLPN
		window := uint64(1)
		if cand.streak >= 2 && cand.depth > 0 {
			// After prefetching `depth` pages past the last miss, the next
			// miss lands depth+1 ahead.
			window = uint64(cand.depth) + 2
		}
		if lpn > cand.lastLPN && gap <= window {
			s = cand
			break
		}
	}
	if s == nil {
		s = &stream{lastLPN: lpn}
		ss := append(c.streams[ino], s)
		if len(ss) > maxStreamsPerIno {
			ss = ss[1:]
		}
		c.streams[ino] = ss
		return
	}
	s.streak++
	s.lastLPN = lpn
	if s.streak < 2 {
		return
	}
	if s.depth == 0 {
		s.depth = c.cfg.PrefetchDepth
	} else if c.cfg.AdaptivePrefetch && s.depth < MaxPrefetchDepth {
		s.depth *= 2
		if s.depth > MaxPrefetchDepth {
			s.depth = MaxPrefetchDepth
		}
	}
	// Bound aggregate readahead to a quarter of the cache so concurrent
	// streams do not evict each other's prefetched pages before use.
	if budget := c.L.Total / 4 / len(c.streams[ino]); s.depth > budget {
		s.depth = budget
		if s.depth < 1 {
			s.depth = 1
		}
	}
	depth := s.depth
	start := lpn + 1
	var toFetch []uint64
	for k := 0; k < depth; k++ {
		key := [2]uint64{ino, start + uint64(k)}
		if !c.inflight[key] {
			c.inflight[key] = true
			toFetch = append(toFetch, start+uint64(k))
		}
	}
	if len(toFetch) == 0 {
		return
	}
	// Fetch the window in the background. Successive windows overlap pages
	// cached by earlier passes, so each worker first probes residency (one
	// bucket meta DMA per page) and fetches only the absent ones: a redundant
	// backend read wastes a page of backend bandwidth exactly when the reader
	// is stalled on its own frontier fill. Backends with a range read serve
	// each contiguous absent run in one operation; otherwise pages fetch in
	// parallel so the prefetcher stays ahead of the reader.
	if rb, ok := c.backend.(RangeBackend); ok {
		c.m.Eng.Go("cache-prefetch", func(pp *sim.Proc) {
			if c.fillFaulted() {
				for _, l := range toFetch {
					delete(c.inflight, [2]uint64{ino, l})
				}
				return
			}
			var need []uint64
			for _, l := range toFetch {
				if !c.present(pp, ino, l) {
					need = append(need, l)
				}
			}
			for i := 0; i < len(need); {
				j := i + 1
				for j < len(need) && need[j] == need[j-1]+1 {
					j++
				}
				pages := rb.ReadPageRange(pp, ino, need[i], j-i, c.L.PageSize)
				for k, pg := range pages {
					if pg != nil {
						c.FillPage(pp, ino, need[i]+uint64(k), pg)
						c.Prefetches.Inc()
					}
				}
				i = j
			}
			for _, l := range toFetch {
				delete(c.inflight, [2]uint64{ino, l})
			}
		})
		return
	}
	for _, l := range toFetch {
		l := l
		c.m.Eng.Go("cache-prefetch", func(pp *sim.Proc) {
			if !c.fillFaulted() && !c.present(pp, ino, l) {
				if data, ok := c.backend.ReadPage(pp, ino, l, c.L.PageSize); ok {
					c.FillPage(pp, ino, l, data)
					c.Prefetches.Inc()
				}
			}
			delete(c.inflight, [2]uint64{ino, l})
		})
	}
}

// fillFaulted consults the injector on the fill/prefetch path: a fired
// KindBackendReadErr makes this window's backend read fail, so the
// prefetcher skips it (a prefetch is best-effort by construction — the
// reader falls back to its own miss path).
func (c *Ctl) fillFaulted() bool {
	kind, _, injected := c.faults.At(fault.SiteCacheFill)
	if injected && kind == fault.KindBackendReadErr {
		c.FillErrs.Inc()
		return true
	}
	return false
}

// present reports whether <ino, lpn> is resident in the host cache, by one
// bucket-sized meta DMA read.
func (c *Ctl) present(p *sim.Proc, ino, lpn uint64) bool {
	var buf bucketBuf
	for _, e := range c.readBucket(p, c.L.BucketOf(ino, lpn), &buf) {
		if e.Status != StatusFree && e.Ino == ino && e.LPN == lpn {
			return true
		}
	}
	return false
}

// encodeEntry serializes an entry into a 32-byte buffer.
func encodeEntry(b []byte, e Entry) {
	le := binary.LittleEndian
	le.PutUint32(b[offLock:], e.Lock)
	le.PutUint32(b[offStatus:], e.Status)
	le.PutUint32(b[offNext:], e.Next)
	le.PutUint64(b[offLPN:], e.LPN)
	le.PutUint64(b[offIno:], e.Ino)
	b[offRef] = e.Ref
}
