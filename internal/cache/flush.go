// Write-back (§3.3 "cache flushing"): the daemon's scan, the flush window,
// fsync's must-settle rule and degraded mode.

package cache

import (
	"encoding/binary"
	"slices"
	"time"

	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/wal"
)

const (
	flushBatch   = 256 // max dirty pages flushed per daemon pass
	flushWorkers = 32  // write-back window: dirty pages flushed concurrently
	// degradedThreshold is how many consecutive backend flush failures flip
	// the cache into degraded mode.
	degradedThreshold = 4
)

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
		c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.Base+hdrDegraded, 1, "cache-degraded")
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
		c.m.PCIe.AtomicStore32(p, c.m.HostMem, c.L.Base+hdrDegraded, 0, "cache-degraded")
	}
}

// flushDaemon periodically scans the meta area and writes dirty pages back
// to the backend (§3.3 "cache flushing").
func (c *Ctl) flushDaemon(p *sim.Proc) {
	for !c.stopped {
		p.Sleep(c.m.Cfg.Costs.FlushInterval)
		if c.stopped {
			return
		}
		c.FlushPass(p, flushBatch)
	}
}

// FlushPass scans the whole meta area (chunked DMA reads), collects dirty
// entries and flushes up to maxPages of them with a pool of parallel worker
// processes (a serial flusher could never keep up with write-back load).
// It returns the number flushed and the first backend error encountered
// (pages whose write-back failed stay dirty for a later pass).
func (c *Ctl) FlushPass(p *sim.Proc, maxPages int) (int, error) {
	s := c.o.Begin(p, "cache.flush_pass")
	defer s.End(p)
	ps := c.beginPass(p, anyIno)
	defer c.endPass(ps)
	ps.entries = c.scanDirty(p, ps.entries, anyIno, maxPages, false)
	return ps.window(ps.flushOneFn)
}

// scanDirty is the control plane's meta-table scan (§3.3): it DMA-reads the
// meta area in 128-entry chunks and returns, in dst[:0], the indices of the
// dirty entries of inode ino (anyIno: of every inode), stopping — and
// issuing no further DMA — once limit are collected. unlogged, the journal's
// scan, leaves out the pages whose current bytes a landed record already
// holds (onLog). Each
// chunk is a view decoded before the next DMA parks the scanner, and only
// the fields the filter tests are decoded. The scan is what the modelled DPU
// does and its PCIe traffic is part of the model (Total*EntrySize bytes per
// full pass); see DESIGN.md for why it is not replaced by a DPU-resident
// dirty index.
func (c *Ctl) scanDirty(p *sim.Proc, dst []int, ino uint64, limit int, unlogged bool) []int {
	dirty := dst[:0]
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
			s := le.Uint32(e[offStatus:])
			if s != StatusDirty && s != StatusLogged { // dirtyMask, compared directly in this hot loop
				continue
			}
			if eino := le.Uint64(e[offIno:]); (ino == anyIno || eino == ino) && !(unlogged && c.onLog(base+k, s, eino)) {
				dirty = append(dirty, base+k)
			}
		}
	}
	return dirty
}

// pass is the scratch of one write-back or journal pass in flight: the
// entries its scan found, the window's cursor and results, the journal
// attempt's records, and its callbacks, bound once. Passes run at the same
// time (the daemon, fsyncs of different inodes, a checkpoint), so each has
// its own; the control plane recycles them (beginPass, endPass), and a
// steady-state pass allocates nothing.
type pass struct {
	c   *Ctl
	p   *sim.Proc // the pass's own process, the joiner settle reports under
	ino uint64    // the inode settled (anyIno: every inode)

	entries []int
	// step is the window's per-entry attempt (flushOne, or settle with try);
	// next, done and err are the workers' shared cursor and results.
	step      func(pp *sim.Proc, i int) (bool, error)
	try       func(pp *sim.Proc, i int) (took, gone bool, err error)
	next      int
	done      int
	err       error
	gen, tick uint64       // the journal attempt's generation and ticket
	recs      []wal.Record // the journal attempt's snapshots

	workFn                 func(pp *sim.Proc, _ int)
	flushOneFn, settleFn   func(pp *sim.Proc, i int) (bool, error)
	tryFlushFn, snapshotFn func(pp *sim.Proc, i int) (took, gone bool, err error)
}

// beginPass returns a pass of process p over inode ino, recycled if one is
// free.
func (c *Ctl) beginPass(p *sim.Proc, ino uint64) *pass {
	var ps *pass
	if k := len(c.passes) - 1; k >= 0 {
		ps, c.passes = c.passes[k], c.passes[:k]
	} else {
		ps = &pass{c: c}
		ps.workFn, ps.settleFn, ps.snapshotFn = ps.work, ps.settle, ps.snapshot
		ps.flushOneFn, ps.tryFlushFn = c.flushOne, c.tryFlush
	}
	ps.p, ps.ino = p, ino
	return ps
}

// endPass recycles ps once its pass has ended. Its slices keep their room;
// recs is empty again, every journal attempt having put its page buffers
// back in the pool.
func (c *Ctl) endPass(ps *pass) {
	ps.p, ps.step, ps.try, ps.err = nil, nil, nil, nil
	c.passes = append(c.passes, ps)
}

// window writes the pass's entries back with a bounded pool of worker
// processes (flushWorkers wide; a serial flusher could never keep up with
// write-back load) and returns how many flushed. step is the per-entry
// attempt; it reports whether this call flushed the entry.
func (ps *pass) window(step func(pp *sim.Proc, i int) (bool, error)) (int, error) {
	if len(ps.entries) == 0 {
		return 0, nil
	}
	ps.step, ps.next, ps.done, ps.err = step, 0, 0, nil
	p := ps.p
	waitFrom := p.Now()
	p.Fork("cache-flush-w", min(flushWorkers, len(ps.entries)), ps.workFn)
	ps.c.o.Attr(p, obs.CompWait, "cache.flush_join", waitFrom, p.Now())
	return ps.done, ps.err
}

// work is one window worker: it takes the next entry until none is left.
func (ps *pass) work(pp *sim.Proc, _ int) {
	for ps.next < len(ps.entries) {
		i := ps.entries[ps.next]
		ps.next++
		ok, err := ps.step(pp, i)
		if ok {
			ps.done++
		}
		if err != nil && ps.err == nil {
			ps.err = err
		}
	}
}

// settle is the window step of a pass that must settle every entry: settle
// with the pass's try.
func (ps *pass) settle(pp *sim.Proc, i int) (bool, error) {
	return ps.c.settle(ps.p, pp, i, ps.ino, ps.try)
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
// or has its current bytes in a landed WAL record of the inode's current
// generation — this call's, or an earlier fsync's that no host write has
// made stale since (StatusLogged). In degraded mode SyncIno falls back to
// FlushIno, so a caller never gets a successful fsync while any journaled-
// but-unflushed page sits behind a failing backend — the fallback fully
// lands or reports the backend error (pinned by
// TestDegradedFsyncReportsError).
func (c *Ctl) FlushIno(p *sim.Proc, ino uint64) (int, error) {
	// Write the pages back as a concurrent window rather than one blocking
	// flushOne at a time; each worker settles its entry.
	ps := c.beginPass(p, ino)
	defer c.endPass(ps)
	ps.entries = c.scanDirty(p, ps.entries, ino, c.L.Total, false)
	ps.try = ps.tryFlushFn
	return ps.window(ps.settleFn)
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
// shown under joiner p's span. Only a host-held lock, whose
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
			s := c.o.BeginChild(pp, c.o.Current(p), "cache.settle")
			from := pp.Now()
			if c.released[i] == nil {
				c.released[i] = sim.NewCond(c.m.Eng, "cache-release")
			}
			for c.held[i] {
				c.released[i].Wait(pp)
			}
			c.o.Attr(pp, obs.CompWait, "cache.settle", from, pp.Now())
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
		if !c.readEntryRemote(pp, i).is(dirtyMask, ino) {
			return false, nil
		}
	}
}

// HeldEntry returns an entry whose lock this control plane's processes hold,
// or -1; at a quiesce point, -1.
func (c *Ctl) HeldEntry() int { return slices.Index(c.held, true) }

// tryFlush is flushOne as a settle attempt. flushOne does not say why it
// flushed nothing, so gone stays false and settle reads the entry itself.
func (c *Ctl) tryFlush(pp *sim.Proc, i int) (took, gone bool, err error) {
	took, err = c.flushOne(pp, i)
	return took, false, err
}

// flushOne safely flushes entry i: read-lock, pull the page to DPU DRAM,
// process, write to the backend, mark clean, unlock. ok=false with a nil
// error means the entry was not ours to flush (lock held, already clean);
// a non-nil error means the backend write failed and the page stays dirty.
func (c *Ctl) flushOne(p *sim.Proc, i int) (bool, error) {
	s := c.o.Begin(p, "cache.flush_page")
	defer s.End(p)
	e, took, _ := c.take(p, i, LockRead, dirtyMask, anyIno)
	if !took {
		return false, nil
	}
	// Pull the page into DPU DRAM by DMA: it must outlive the backend write,
	// so it lands in a pooled buffer, released once WritePage has returned.
	// The pull fills the whole buffer, so it needs no clearing first.
	data := c.pool.GetUncleared(c.L.PageSize)
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
	// The page's new bytes are on the backend: a fill that read it before
	// now must not install what it read.
	c.staleReads(pageKey{e.Ino, e.LPN})
	c.setStatus(p, i, StatusClean)
	c.unlock(p, i)
	c.Flushes.Inc()
	c.noteFlushSuccess(p)
	return true, nil
}
