// The fsync journal: with a WAL attached, fsync group-commits an inode's
// dirty pages into the log, and checkpoints compact it.

package cache

import (
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
	seq := c.waitCheckpoint(p)
	gen := c.walGens[ino]

	var recs []wal.Record
	defer func() {
		for i := range recs {
			c.pool.Put(recs[i].Data)
		}
	}()
	_, err = c.flushWindow(p, c.scanDirty(p, ino, c.L.Total), func(pp *sim.Proc, i int) (bool, error) {
		return c.settle(p, pp, i, ino, func(pp *sim.Proc, i int) (took, gone bool, err error) {
			// Busy: a concurrent flush or host write owns the entry. Gone: seen
			// under the lock, so settle needs no second meta read.
			e, took, gone := c.take(pp, i, LockRead, StatusDirty, ino)
			if !took {
				return false, gone, nil
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
