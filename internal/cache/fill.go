// Replacement and fill: the DPU installs pages read from the backend into
// the host cache and frees clean entries to make room for them.

package cache

import (
	"fmt"

	"dpc/internal/sim"
)

// FillPage inserts a page into the host cache from the DPU side: it claims a
// free or evictable entry in the page's bucket, DMA-writes the data into the
// corresponding host page, and marks the entry clean. Returns the entry
// index, or -1 if the bucket is unreclaimable right now.
func (c *Ctl) FillPage(p *sim.Proc, ino, lpn uint64, data []byte) int {
	return c.fillPage(p, ino, lpn, data, c.seq(ino, lpn))
}

// ReadFill is a read miss: read fills page from the backend (false: nothing
// at lpn) and FillPage installs it, unless a write or truncate of ino
// (NoteWrite) or a write-back of the page completed after read began: then
// idx is -1 and the bytes go back inline. read must not escape.
func (c *Ctl) ReadFill(p *sim.Proc, ino, lpn uint64, page []byte, read func() bool) (idx int, found bool) {
	seq := c.seq(ino, lpn)
	if !read() {
		return -1, false
	}
	return c.fillPage(p, ino, lpn, page, seq), true
}

// fillPage installs data, read from the backend when the page's write
// sequence was seq.
func (c *Ctl) fillPage(p *sim.Proc, ino, lpn uint64, data []byte, seq uint64) int {
	s := c.o.Begin(p, "cache.fill")
	defer s.End(p)
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
	if k := indexOf(entries, ino, lpn, -1); k >= 0 {
		return lo + k
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
	cur, took, _ := c.take(p, target, LockWrite, 1<<StatusFree, anyIno)
	if !took {
		// Lost the entry to a concurrent claim; this fill is best-effort.
		return -1
	}
	c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+hdrFree, ^uint32(0), "cache-free-dec")
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
	if k := indexOf(c.readBucket(p, bucket, &buf), ino, lpn, target-lo); k >= 0 {
		c.retract(p, target)
		return lo + k
	}
	// And against the backend: a write of the inode or a write-back of the
	// page that completed since our read began has noted it by now; a later
	// one's merge finds the claim.
	if c.seq(ino, lpn) != seq {
		c.retract(p, target)
		return -1
	}
	c.m.PCIe.DMAWrite(p, c.m.HostMem, c.L.PageAddr(target), data, "cache-fill")
	c.setStatus(p, target, StatusClean)
	c.unlock(p, target)
	c.Fills.Inc()
	return target
}

// retract gives up fill claim i, whose lock the caller holds: the header's
// free counter first, then status Free, then the lock.
func (c *Ctl) retract(p *sim.Proc, i int) {
	c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+hdrFree, 1, "cache-free-inc")
	c.setStatus(p, i, StatusFree)
	c.unlock(p, i)
}

// evict frees clean entry i, whose lock the caller took: status Free, then
// the header's free counter, then the lock.
func (c *Ctl) evict(p *sim.Proc, i int) {
	c.setStatus(p, i, StatusFree)
	c.m.PCIe.AtomicFetchAdd32(p, c.m.HostMem, c.L.Base+hdrFree, 1, "cache-free-inc")
	c.unlock(p, i)
	c.Evictions.Inc()
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
		if _, took, _ := c.take(p, lo+k, LockWrite, 1<<StatusClean, anyIno); took {
			c.evict(p, lo+k)
			return lo + k
		}
	}
	return -1
}

// ReclaimBucket handles a host CacheEvict request: make room in the bucket
// that failed, flushing dirty entries if nothing clean is available.
// Returns the number of entries freed.
func (c *Ctl) ReclaimBucket(p *sim.Proc, ino, lpn uint64, want int) int {
	s := c.o.Begin(p, "cache.reclaim")
	defer s.End(p)
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
		if !e.is(dirtyMask, anyIno) {
			continue
		}
		if ok, _ := c.flushOne(p, lo+k); !ok {
			continue
		}
		if _, took, _ := c.take(p, lo+k, LockWrite, 1<<StatusClean, anyIno); took {
			c.evict(p, lo+k)
			freed++
		}
	}
	return freed
}

// NoteWrite records that a backend write or truncate of ino has completed.
// Fills of ino whose backend read began before it retract.
func (c *Ctl) NoteWrite(ino uint64) {
	c.writes[ino]++
}

// seq is the write sequence of page <ino, lpn>: the inode's completed
// backend writes and truncates plus the page's landed write-backs.
func (c *Ctl) seq(ino, lpn uint64) uint64 {
	return c.writes[ino] + c.flushed[[2]uint64{ino, lpn}]
}
