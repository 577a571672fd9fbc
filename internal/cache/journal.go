// The fsync journal: with a WAL attached, fsync group-commits an inode's
// dirty pages into the log, and checkpoints compact it.

package cache

import (
	"slices"

	"dpc/internal/sim"
	"dpc/internal/wal"
)

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
// settled: snapshotted here, observed clean (a concurrent flush made it
// durable some other way), or left out because a landed record already holds
// its current bytes (onLog): a page's record is written once per host write,
// not once per fsync.
//
// One inode journals one pass at a time: a second fsync of it waits for the
// first to end. Two passes could otherwise snapshot a page before and after a
// host write and land in the other order, and replay, which applies records
// in log order, would leave the older bytes. Group commit still batches the
// passes of different inodes.
//
// Checkpoint interleaving: a checkpoint settles every dirty page and then
// invalidates all prior records. A batch committed with records snapshotted
// before the checkpoint's settle scan but landed after it would ack pages
// the checkpoint neither flushed nor preserved — so any commit that raced a
// checkpoint (ckptSeq moved) is thrown away and the whole pass re-runs
// against the post-checkpoint cache state.
func (c *Ctl) journalIno(p *sim.Proc, ino uint64) (int, error) {
	for c.journaling[ino] {
		c.journalDone.Wait(p)
	}
	c.journaling[ino] = true
	ps := c.beginPass(p, ino)
	defer func() {
		c.endPass(ps)
		delete(c.journaling, ino)
		c.journalDone.Broadcast()
	}()
	for attempt := 0; ; attempt++ {
		if n, again, err := ps.journalAttempt(attempt); !again {
			return n, err
		}
	}
}

// logNote is the DPU's note on an entry a journal attempt stored
// StatusLogged in: the attempt's ticket (0: none), whether its commit landed,
// and the inode generation its record carries.
type logNote struct {
	ticket uint64
	gen    uint64
	landed bool
}

// onLog reports whether entry i, holding a page of ino with status s, needs
// no new record: it is StatusLogged (no host write since its snapshot), and
// that snapshot landed under the inode's current generation — a later
// generation bump makes replay skip the record.
func (c *Ctl) onLog(i int, s uint32, ino uint64) bool {
	n := c.logs[i]
	return s == StatusLogged && n.landed && n.gen == c.walGens[ino]
}

// unlog undoes the notes of journal attempt t, which did not land: each of
// the entries it may have logged that still carries its ticket goes back from
// StatusLogged to StatusDirty. A CAS: a host write since the snapshot has
// already stored StatusDirty, and an invalidation StatusFree.
func (c *Ctl) unlog(p *sim.Proc, entries []int, t uint64) {
	for _, i := range entries {
		if c.logs[i].ticket == t {
			c.m.PCIe.AtomicCAS32(p, c.m.HostMem, c.L.EntryAddr(i)+offStatus, StatusLogged, StatusDirty, "cache-status")
			c.logs[i] = logNote{}
		}
	}
}

// PendingLog returns an entry that carries the ticket of a journal attempt
// that neither landed nor was undone, or -1; at a quiesce point, -1.
func (c *Ctl) PendingLog() int {
	return slices.IndexFunc(c.logs, func(n logNote) bool { return n.ticket != 0 && !n.landed })
}

// journalAttempt is one snapshot-and-commit pass of journalIno over the
// pass's inode; again=true asks for a re-run against the post-checkpoint
// cache state. Each snapshot stores StatusLogged under the entry lock and
// notes the attempt's ticket; the notes are marked landed once Commit
// succeeds and undone (unlog) on every other exit. The snapshotted pages
// live in pooled buffers that go back on every exit, and only once Commit
// has returned: a follower's records are framed by its group leader.
func (ps *pass) journalAttempt(attempt int) (n int, again bool, err error) {
	c, p, ino := ps.c, ps.p, ps.ino
	seq := c.waitCheckpoint(p)
	ps.gen = c.walGens[ino]
	c.tickets++
	ps.tick = c.tickets

	ps.entries = c.scanDirty(p, ps.entries, ino, c.L.Total, true)
	landed := false
	defer func() {
		for i := range ps.recs {
			c.pool.Put(ps.recs[i].Data)
		}
		clear(ps.recs)
		ps.recs = ps.recs[:0]
		if !landed {
			c.unlog(p, ps.entries, ps.tick)
		}
	}()
	ps.try = ps.snapshotFn
	_, err = ps.window(ps.settleFn)
	recs := ps.recs
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
	landed = true
	for _, i := range ps.entries {
		if c.logs[i].ticket == ps.tick {
			c.logs[i].landed = true
		}
	}
	return len(recs), false, nil
}

// snapshot is a journal attempt's settle try on entry i: pull the page and
// store StatusLogged under the entry lock. Busy: a concurrent flush or host
// write owns the entry. Gone: seen under the lock, so settle needs no second
// meta read.
func (ps *pass) snapshot(pp *sim.Proc, i int) (took, gone bool, err error) {
	c := ps.c
	e, took, gone := c.take(pp, i, LockRead, dirtyMask, ps.ino)
	if !took {
		return false, gone, nil
	}
	data := c.pool.GetUncleared(c.L.PageSize) // the pull fills it whole
	c.m.PCIe.DMAReadInto(pp, data, c.m.HostMem, c.L.PageAddr(i), "cache-pull")
	if e.Status != StatusLogged {
		c.setStatus(pp, i, StatusLogged)
	}
	c.logs[i] = logNote{ticket: ps.tick, gen: ps.gen}
	c.unlock(pp, i)
	ps.recs = append(ps.recs, wal.Record{Kind: wal.RecPage, Ino: ps.ino, LPN: e.LPN, Gen: ps.gen, Data: data})
	return true, false, nil
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
		seq := c.waitCheckpoint(p)
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

// waitCheckpoint parks p until no checkpoint is running and returns the
// checkpoint sequence number it then sees: a commit that finds it moved, or a
// checkpoint running again, raced one.
func (c *Ctl) waitCheckpoint(p *sim.Proc) uint64 {
	for c.ckpting {
		c.ckptDone.Wait(p)
	}
	return c.ckptSeq
}

// checkpoint compacts the WAL: settle every dirty page into the backend,
// then bump the log epoch so the (now redundant) records are dropped and
// the append region is reclaimed. Concurrent checkpoints coalesce via the
// ckpting flag; journal commits racing the settle window re-run (see
// journalIno).
func (c *Ctl) checkpoint(p *sim.Proc) error {
	c.waitCheckpoint(p)
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
