package localfs

// pageCache is an LRU page cache keyed by (inode, page index), with dirty
// tracking. It models the kernel page cache used for buffered I/O.

type pcKey struct {
	ino  uint64 //dpclint:ok map-key identity: compared whole, never read by name
	page int64  //dpclint:ok map-key identity: compared whole, never read by name
}

type cachePage struct {
	ino   uint64
	page  int64
	data  []byte
	dirty bool

	prev, next *cachePage
}

type pageCache struct {
	capacity int
	pages    map[pcKey]*cachePage
	// Doubly-linked LRU list with sentinel head: head.next is most recent.
	head *cachePage
}

func newPageCache(capacity int) *pageCache {
	s := &cachePage{}
	s.prev, s.next = s, s
	return &pageCache{capacity: capacity, pages: map[pcKey]*cachePage{}, head: s}
}

func (c *pageCache) unlink(pg *cachePage) {
	pg.prev.next = pg.next
	pg.next.prev = pg.prev
}

func (c *pageCache) pushFront(pg *cachePage) {
	pg.next = c.head.next
	pg.prev = c.head
	c.head.next.prev = pg
	c.head.next = pg
}

func (c *pageCache) touch(pg *cachePage) {
	c.unlink(pg)
	c.pushFront(pg)
}

// get returns the cached page data (aliased, callers may mutate only via
// putDirty) or nil.
func (c *pageCache) get(ino uint64, page int64) []byte {
	pg, ok := c.pages[pcKey{ino, page}]
	if !ok {
		return nil
	}
	c.touch(pg)
	return pg.data
}

// put inserts or replaces a page and returns an evicted dirty page needing
// write-back, if any.
func (c *pageCache) put(ino uint64, page int64, data []byte, dirty bool) *cachePage {
	if c.capacity == 0 {
		if dirty {
			return &cachePage{ino: ino, page: page, data: data, dirty: true}
		}
		return nil
	}
	key := pcKey{ino, page}
	if pg, ok := c.pages[key]; ok {
		pg.data = data
		pg.dirty = pg.dirty || dirty
		c.touch(pg)
		return nil
	}
	pg := &cachePage{ino: ino, page: page, data: data, dirty: dirty}
	c.pages[key] = pg
	c.pushFront(pg)
	if len(c.pages) > c.capacity {
		victim := c.head.prev
		c.unlink(victim)
		delete(c.pages, pcKey{victim.ino, victim.page})
		if victim.dirty {
			return victim
		}
	}
	return nil
}

func (c *pageCache) putDirty(ino uint64, page int64, data []byte) *cachePage {
	return c.put(ino, page, data, true)
}

func (c *pageCache) putClean(ino uint64, page int64, data []byte) *cachePage {
	return c.put(ino, page, data, false)
}

// dirtyPages returns every dirty page (for Sync).
func (c *pageCache) dirtyPages() []*cachePage {
	var out []*cachePage
	for pg := c.head.next; pg != c.head; pg = pg.next {
		if pg.dirty {
			out = append(out, pg)
		}
	}
	return out
}

// getPage returns the cache entry itself (for dirty checks), or nil.
func (c *pageCache) getPage(ino uint64, page int64) *cachePage {
	pg, ok := c.pages[pcKey{ino, page}]
	if !ok {
		return nil
	}
	return pg
}

// invalidate drops one page.
func (c *pageCache) invalidate(ino uint64, page int64) {
	if pg, ok := c.pages[pcKey{ino, page}]; ok {
		c.unlink(pg)
		delete(c.pages, pcKey{ino, page})
	}
}

// invalidateFile drops every page of a file (on unlink/truncate).
func (c *pageCache) invalidateFile(ino uint64) {
	for key, pg := range c.pages {
		if key.ino == ino {
			c.unlink(pg)
			delete(c.pages, key)
		}
	}
}

// len returns the number of cached pages.
func (c *pageCache) len() int { return len(c.pages) }

// recentPages is a bounded ring of recently accessed page indices, used for
// multi-stream sequential detection.
type recentPages struct {
	ring []int64
	pos  int
	set  map[int64]int // page -> count in ring
}

func newRecentPages(capacity int) *recentPages {
	return &recentPages{ring: make([]int64, 0, capacity), set: map[int64]int{}}
}

// note records a page access.
func (r *recentPages) note(pg int64) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, pg)
	} else {
		old := r.ring[r.pos]
		if c := r.set[old]; c <= 1 {
			delete(r.set, old)
		} else {
			r.set[old] = c - 1
		}
		r.ring[r.pos] = pg
		r.pos = (r.pos + 1) % cap(r.ring)
	}
	r.set[pg]++
}

// sawRecently reports whether pg was accessed within the ring window.
func (r *recentPages) sawRecently(pg int64) bool {
	_, ok := r.set[pg]
	return ok
}
