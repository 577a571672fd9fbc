// Prefetching (§3.3): a per-inode sequential-stream detector and the
// background window fetch it drives.

package cache

import (
	"dpc/internal/fault"
	"dpc/internal/sim"
)

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
	ss := c.streams[ino]
	for i := range ss {
		cand := &ss[i]
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
		// A new stream, the oldest evicted by shifting the rest down in
		// place: the slice stops growing at maxStreamsPerIno.
		if len(ss) < maxStreamsPerIno {
			ss = append(ss, stream{})
		} else {
			copy(ss, ss[1:])
		}
		ss[len(ss)-1] = stream{lastLPN: lpn}
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
	if budget := c.L.Total / 4 / len(ss); s.depth > budget {
		s.depth = budget
		if s.depth < 1 {
			s.depth = 1
		}
	}
	start := lpn + 1
	var toFetch []uint64
	for l := start; l < start+uint64(s.depth); l++ {
		if k := (pageKey{ino, l}); !c.reads[k].prefetch {
			c.beginRead(k, true)
			toFetch = append(toFetch, l)
		}
	}
	if len(toFetch) == 0 {
		return
	}
	// Fetch the window in the background. Successive windows overlap pages
	// cached by earlier passes, so the worker first probes residency (one
	// bucket meta DMA per page) and fetches only the absent ones: a redundant
	// backend read wastes a page of backend bandwidth exactly when the reader
	// is stalled on its own frontier fill. Each contiguous absent run is one
	// range read, and each of its fills compares its page's landed-write
	// count with the count before the read (see ReadFill).
	rb := c.backend.(RangeBackend)
	c.m.Eng.Go("cache-prefetch", func(pp *sim.Proc) {
		var need []uint64 // stays empty when the window's read fails
		if !c.fillFaulted() {
			for _, l := range toFetch {
				if !c.present(pp, ino, l) {
					need = append(need, l)
				}
			}
		}
		writes := make([]uint64, len(need))
		for i := 0; i < len(need); {
			j := i + 1
			for j < len(need) && need[j] == need[j-1]+1 {
				j++
			}
			for k := i; k < j; k++ {
				writes[k] = c.reads[pageKey{ino, need[k]}].writes
			}
			pages := rb.ReadPageRange(pp, ino, need[i], j-i, c.L.PageSize)
			for k, pg := range pages {
				if pg != nil {
					c.fillPage(pp, ino, need[i]+uint64(k), pg, writes[i+k])
					c.Prefetches.Inc()
				}
			}
			i = j
		}
		for _, l := range toFetch {
			c.endRead(pageKey{ino, l}, true)
		}
	})
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
	return indexOf(c.readBucket(p, c.L.BucketOf(ino, lpn), &buf), ino, lpn, -1) >= 0
}
