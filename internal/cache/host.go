package cache

import (
	"encoding/binary"
	"fmt"
	"time"

	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Host is the host-side (fs-adapter) view of the cache data plane. All of
// its memory accesses are host-local: a cache hit never touches PCIe, which
// is the point of the hybrid design. Lock words are manipulated with host
// atomics; the DPU side uses PCIe atomics on the same words.
type Host struct {
	m *model.Machine
	L Layout

	// Published as cache.host.* when obs is on.
	Hits      stats.Counter
	Misses    stats.Counter
	CachedWr  stats.Counter
	WriteFull stats.Counter

	// maybeDirty holds every inode this host has marked a page dirty for
	// since HasDirty last found it clean. A page becomes dirty only by a host
	// write, and a layout has one Host: the DPU stores StatusLogged only over
	// a dirty page, and StatusDirty only to undo that (an fsync that did not
	// land), so both count as dirty here and an inode outside the set has no
	// dirty page: HasDirty need not scan for it.
	maybeDirty map[uint64]struct{}

	// o is the machine's hub (nil when disabled): entry-lock spin
	// attribution.
	o *obs.Obs
}

// NewHost wraps an initialized layout.
func NewHost(m *model.Machine, l Layout) *Host {
	h := &Host{m: m, L: l, maybeDirty: map[uint64]struct{}{}, o: m.Obs}
	m.Obs.Publish("cache.host.hits", h.Hits.Loc())
	m.Obs.Publish("cache.host.misses", h.Misses.Loc())
	m.Obs.Publish("cache.host.cached_writes", h.CachedWr.Loc())
	m.Obs.Publish("cache.host.write_full", h.WriteFull.Loc())
	return h
}

// Degraded reports whether the DPU ctl has flagged the cache degraded
// (persistent backend write-back failure). Host-local memory read; the
// client checks it to route writes directly to the backend instead of
// accumulating dirty pages that cannot be flushed.
func (h *Host) Degraded() bool { return h.m.HostMem.Uint32(h.L.Base+hdrDegraded) != 0 }

// meta returns the live host-memory bytes of entries [lo, hi). The host's
// walks compare fields in place in it instead of decoding every entry; being
// a view, it shows the current bytes even after the walker yields.
func (h *Host) meta(lo, hi int) []byte {
	return h.m.HostMem.Slice(h.L.EntryAddr(lo), (hi-lo)*EntrySize)
}

// findEntry scans a bucket's chain for <ino, lpn>, returning the entry index
// or -1. Host-local memory walk. StatusInvalid entries count as present:
// that is the DPU's fill-pending claim, and treating a claimed page as
// absent would let the host insert a duplicate entry for the same page —
// two copies of one page with independent contents is unrecoverable.
// A claim is published together with its write lock, so acquire waits it out
// like any other held entry.
func (h *Host) findEntry(ino, lpn uint64) int {
	le := binary.LittleEndian
	lo, hi := h.L.BucketEntries(h.L.BucketOf(ino, lpn))
	meta := h.meta(lo, hi)
	for i := lo; i < hi; i++ {
		e := meta[(i-lo)*EntrySize:][:EntrySize]
		if le.Uint64(e[offLPN:]) == lpn && le.Uint64(e[offIno:]) == ino && le.Uint32(e[offStatus:]) != StatusFree {
			return i
		}
	}
	return -1
}

// lockEntry takes entry i's lock word for kind, waiting out whoever holds it:
// the flusher for one backend write, a fill or an eviction for a few PCIe
// operations, another host thread for one page copy. A held lock is never a
// reason to give up or to go around the entry — every bounded spin this
// package once had lost an update or served stale bytes — so the only way
// out other than the lock is the livelock panic. The wait is attributed as
// cache.lock.
func (h *Host) lockEntry(p *sim.Proc, i int, kind uint32) {
	a := h.L.EntryAddr(i) + offLock
	from := p.Now()
	for spins := 0; !h.m.HostMem.CompareAndSwap32(a, LockNone, kind); spins++ {
		if spins > 1<<22 {
			panic("cache: host livelocked on a held entry lock")
		}
		p.Sleep(500 * time.Nanosecond)
	}
	h.o.Attr(p, obs.CompWait, "cache.lock", from, p.Now())
}

// acquire is the host side of the entry protocol, the one place it is
// written: find the entry of <ino, lpn>, take its lock (lockEntry waits), and
// re-check status and identity under the lock — the DPU may have evicted and
// re-used the entry during the wait, in which case the page is looked up
// again. It returns the locked entry's index, or -1 only when the page is
// absent from the cache; the caller unlocks. Nothing yields between findEntry
// and an uncontended lock, so a pass that finds the entry replaced has waited:
// the loop advances virtual time or returns.
func (h *Host) acquire(p *sim.Proc, ino, lpn uint64, kind uint32) int {
	for {
		i := h.findEntry(ino, lpn)
		if i < 0 {
			return -1
		}
		h.lockEntry(p, i, kind)
		e := ReadEntry(h.m.HostMem, h.L, i)
		if e.is(1<<StatusClean|dirtyMask, ino) && e.LPN == lpn {
			return i
		}
		h.unlock(i)
	}
}

func (h *Host) unlock(i int) { h.m.HostMem.PutUint32(h.L.EntryAddr(i)+offLock, LockNone) }

// LookupInto copies dst's worth of the cached page for <ino, lpn>, starting
// at page offset po, into the caller's buffer: the zero-allocation read path.
// False means the page is absent, never that it is busy: a page the control
// plane holds locked is waited for and read from the cache, because the
// backend may not have its bytes yet (the flusher holds its lock across the
// whole write-back of a dirty page). The lookup cost is charged once per
// call, however long the wait.
func (h *Host) LookupInto(p *sim.Proc, ino, lpn uint64, po int, dst []byte) bool {
	h.m.HostExec(p, h.m.Cfg.Costs.HostCacheLookup)
	if po < 0 || po+len(dst) > h.L.PageSize {
		panic(fmt.Sprintf("cache: LookupInto range [%d,%d) of page size %d", po, po+len(dst), h.L.PageSize))
	}
	i := h.acquire(p, ino, lpn, LockRead)
	if i < 0 {
		h.Misses.Inc()
		return false
	}
	copy(dst, h.m.HostMem.Slice(h.L.PageAddr(i)+mem.Addr(po), len(dst)))
	// Charged at page granularity whatever len(dst) is: the calibrated cost
	// covers the locked page copy-out.
	h.m.HostExec(p, h.m.Cfg.Costs.HostCopyPerPage*int64((h.L.PageSize+4095)/4096))
	// Mark the CLOCK reference bit: second-chance eviction spares recently
	// hit pages.
	h.m.HostMem.Slice(h.L.EntryAddr(i)+offRef, 1)[0] = 1
	h.unlock(i)
	h.Hits.Inc()
	return true
}

// WritePage caches a full page write for <ino, lpn>, marking it dirty. It
// returns false when the bucket has no free entry (the caller must ask the
// DPU control plane to reclaim space and retry). The front-end write
// protocol follows §3.3: find entry, lock atomically, compute the page
// address from the entry position, write, release and set dirty.
func (h *Host) WritePage(p *sim.Proc, ino, lpn uint64, data []byte) bool {
	if len(data) != h.L.PageSize {
		panic("cache: WritePage requires a full page")
	}
	h.m.HostExec(p, h.m.Cfg.Costs.HostCacheLookup)

	// Update in place if the page is already cached. While the entry exists
	// this MUST land (acquire waits out the flusher, and -1 means absent):
	// falling through to the insert path with the page still present would
	// leave a stale copy that a later lookup serves as current data.
	if i := h.acquire(p, ino, lpn, LockWrite); i >= 0 {
		h.m.HostMem.Write(h.L.PageAddr(i), data)
		h.m.HostExec(p, h.m.Cfg.Costs.HostCopyPerPage*int64((h.L.PageSize+4095)/4096))
		h.m.HostMem.PutUint32(h.L.EntryAddr(i)+offStatus, StatusDirty)
		h.maybeDirty[ino] = struct{}{}
		h.unlock(i)
		h.CachedWr.Inc()
		return true
	}

	// Insert into a free entry of the bucket.
	lo, hi := h.L.BucketEntries(h.L.BucketOf(ino, lpn))
	meta := h.meta(lo, hi)
	for i := lo; i < hi; i++ {
		if binary.LittleEndian.Uint32(meta[(i-lo)*EntrySize+offStatus:]) != StatusFree {
			continue
		}
		a := h.L.EntryAddr(i)
		if !h.m.HostMem.CompareAndSwap32(a+offLock, LockNone, LockWrite) {
			continue
		}
		if h.m.HostMem.Uint32(a+offStatus) != StatusFree {
			h.unlock(i)
			continue
		}
		h.m.HostMem.Write(h.L.PageAddr(i), data)
		h.m.HostMem.PutUint64(a+offLPN, lpn)
		h.m.HostMem.PutUint64(a+offIno, ino)
		h.m.HostMem.PutUint32(a+offStatus, StatusDirty)
		h.maybeDirty[ino] = struct{}{}
		h.unlock(i)
		AddHeaderFree(h.m.HostMem, h.L, -1)
		// The copy cost is charged only after the entry is fully published:
		// a yield between the absence check above and publication would let
		// a concurrent DPU fill claim a second entry for this page.
		h.m.HostExec(p, h.m.Cfg.Costs.HostCopyPerPage*int64((h.L.PageSize+4095)/4096))
		h.CachedWr.Inc()
		return true
	}
	h.WriteFull.Inc()
	return false
}

// InvalidateIno drops every cached page of one inode (truncate/unlink):
// stale pages left behind would poison later read-modify-write cycles and
// resurrect dead data through the flush daemon. Entries locked by the DPU
// control plane are waited on until released — a skipped entry would
// survive the invalidation and serve pre-truncate bytes as current data.
// Waiting also serializes truncate against in-flight flushes: once this
// returns, no flusher still holds a snapshot of this inode's pages.
func (h *Host) InvalidateIno(p *sim.Proc, ino uint64) {
	h.m.HostExec(p, h.m.Cfg.Costs.HostCacheLookup)
	le := binary.LittleEndian
	meta := h.meta(0, h.L.Total)
	for i := 0; i < h.L.Total; i++ {
		raw := meta[i*EntrySize:][:EntrySize]
		// StatusInvalid with a matching ino is a pending DPU fill of this
		// inode's page: wait it out (the lock below) and drop the result,
		// or it would survive the invalidation holding stale bytes.
		if le.Uint32(raw[offStatus:]) == StatusFree || le.Uint64(raw[offIno:]) != ino {
			continue
		}
		// By index, not through acquire: whatever page of the inode the entry
		// holds once its lock drops is the one to free.
		h.lockEntry(p, i, LockWrite)
		e := ReadEntry(h.m.HostMem, h.L, i)
		if e.Status != StatusFree && e.Ino == ino {
			h.m.HostMem.PutUint32(h.L.EntryAddr(i)+offStatus, StatusFree)
			AddHeaderFree(h.m.HostMem, h.L, 1)
		}
		h.unlock(i)
	}
}

// MergeIfPresent overlays frag at byte offset pageOff into the cached page
// for <ino, lpn>, if one is cached. Direct writes call this after hitting
// the backend so a cached copy (possibly dirty with earlier buffered data)
// does not keep — and later flush — stale bytes. The merged page is marked
// dirty: its content may now differ from what the backend holds if a flush
// raced the backend write, and a redundant flush is harmless while a silent
// mismatch is not.
//
// While the entry exists the merge MUST land (acquire waits out the flusher):
// giving up on a held lock leaves the cached copy missing the direct write's
// bytes, which a later buffered read serves as current data.
func (h *Host) MergeIfPresent(p *sim.Proc, ino, lpn uint64, pageOff int, frag []byte) {
	if len(frag) == 0 || pageOff+len(frag) > h.L.PageSize {
		return
	}
	h.m.HostExec(p, h.m.Cfg.Costs.HostCacheLookup)
	i := h.acquire(p, ino, lpn, LockWrite)
	if i < 0 {
		return
	}
	h.m.HostMem.Write(h.L.PageAddr(i)+mem.Addr(pageOff), frag)
	h.m.HostExec(p, h.m.Cfg.Costs.HostCopyPerPage)
	h.m.HostMem.PutUint32(h.L.EntryAddr(i)+offStatus, StatusDirty)
	h.maybeDirty[ino] = struct{}{}
	h.unlock(i)
}

// HasDirty reports whether any cached page of ino is dirty, journaled or
// not (StatusDirty or StatusLogged). Direct I/O uses
// it to decide whether an fsync must run first so O_DIRECT readers see
// buffered data. The meta table is scanned only for an inode in maybeDirty,
// and a scan that finds nothing drops it; the modelled cost is the same
// either way.
func (h *Host) HasDirty(p *sim.Proc, ino uint64) bool {
	h.m.HostExec(p, h.m.Cfg.Costs.HostCacheLookup)
	if _, ok := h.maybeDirty[ino]; !ok {
		return false
	}
	le := binary.LittleEndian
	meta := h.meta(0, h.L.Total)
	for i := 0; i < h.L.Total; i++ {
		e := meta[i*EntrySize:][:EntrySize]
		if 1<<le.Uint32(e[offStatus:])&dirtyMask != 0 && le.Uint64(e[offIno:]) == ino {
			return true
		}
	}
	delete(h.maybeDirty, ino)
	return false
}
