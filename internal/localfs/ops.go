package localfs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"dpc/internal/sim"
)

// devRetries bounds how many times a timed device I/O is retried after a
// transient (injected) media error before the error is surfaced.
const devRetries = 4

// devRead is the retrying wrapper around the device's timed read path.
func (fs *FS) devRead(p *sim.Proc, off int64, n int) ([]byte, error) {
	var err error
	for attempt := 0; attempt <= devRetries; attempt++ {
		if attempt > 0 {
			p.Sleep(50 * time.Microsecond)
		}
		var b []byte
		if b, err = fs.dev.Read(p, off, n); err == nil {
			return b, nil
		}
	}
	return nil, fmt.Errorf("localfs: device read [%d,+%d): %w", off, n, err)
}

// devWrite is the retrying wrapper around the device's timed write path.
func (fs *FS) devWrite(p *sim.Proc, off int64, data []byte) error {
	var err error
	for attempt := 0; attempt <= devRetries; attempt++ {
		if attempt > 0 {
			p.Sleep(50 * time.Microsecond)
		}
		if err = fs.dev.Write(p, off, data); err == nil {
			return nil
		}
	}
	return fmt.Errorf("localfs: device write [%d,+%d): %w", off, len(data), err)
}

// mustDevRead/mustDevWrite serve the paths with no error plumbing (page
// write-back, read-ahead, journal commits). Transient faults are absorbed
// by the bounded retry; a persistent media failure on these paths is fatal
// by design — local Ext4 would remount read-only here, which is out of
// scope for the fault schedules the harness generates.
func (fs *FS) mustDevRead(p *sim.Proc, off int64, n int) []byte {
	b, err := fs.devRead(p, off, n)
	if err != nil {
		panic(err.Error())
	}
	return b
}

func (fs *FS) mustDevWrite(p *sim.Proc, off int64, data []byte) {
	if err := fs.devWrite(p, off, data); err != nil {
		panic(err.Error())
	}
}

// ---- path and directory operations ----
//
// Directory contents are stored on disk as real dirent records in the
// directory's data blocks, and mirrored in an in-memory dentry cache the way
// the kernel's dcache does — lookups are RAM-speed, mutations rewrite the
// on-disk blocks.

type dirState struct {
	entries map[string]uint64
}

func (fs *FS) dirOf(ino uint64) *dirState {
	if fs.dcache == nil {
		fs.dcache = map[uint64]*dirState{}
	}
	d, ok := fs.dcache[ino]
	if !ok {
		d = &dirState{entries: map[string]uint64{}}
		fs.dcache[ino] = d
	}
	return d
}

// persistDir rewrites a directory's dirent blocks on disk (raw: metadata
// writes are journaled and batched by the journal charge in the caller).
func (fs *FS) persistDir(dirIno uint64) {
	d := fs.dirOf(dirIno)
	names := make([]string, 0, len(d.entries))
	for n := range d.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf []byte
	for _, n := range names {
		rec := make([]byte, direntFixed+len(n))
		binary.LittleEndian.PutUint64(rec, d.entries[n])
		binary.LittleEndian.PutUint16(rec[8:], uint16(len(n)))
		binary.LittleEndian.PutUint16(rec[10:], uint16(len(rec)))
		copy(rec[direntFixed:], n)
		buf = append(buf, rec...)
	}
	ind := fs.inodes[dirIno]
	ind.Size = uint64(len(buf))
	for off := 0; off < len(buf); off += BlockSize {
		end := off + BlockSize
		if end > len(buf) {
			end = len(buf)
		}
		blk, err := fs.blockOf(ind, int64(off/BlockSize), true)
		if err != nil {
			return // ENOSPC on metadata: directory stays memory-consistent
		}
		fs.dev.WriteRaw(blk*BlockSize, buf[off:end])
	}
}

// loadDir decodes a directory's dirent blocks from disk into the dcache.
// Exposed for tests that verify the on-disk format round-trips.
func (fs *FS) loadDir(dirIno uint64) map[string]uint64 {
	ind := fs.inodes[dirIno]
	out := map[string]uint64{}
	var raw []byte
	for off := int64(0); off < int64(ind.Size); off += BlockSize {
		blk, _ := fs.blockOf(ind, off/BlockSize, false)
		if blk == 0 {
			break
		}
		n := int64(ind.Size) - off
		if n > BlockSize {
			n = BlockSize
		}
		raw = append(raw, fs.dev.ReadRaw(blk*BlockSize, int(n))...)
	}
	for len(raw) >= direntFixed {
		ino := binary.LittleEndian.Uint64(raw)
		nameLen := int(binary.LittleEndian.Uint16(raw[8:]))
		recLen := int(binary.LittleEndian.Uint16(raw[10:]))
		if recLen < direntFixed+nameLen || recLen > len(raw) {
			break
		}
		out[string(raw[direntFixed:direntFixed+nameLen])] = ino
		raw = raw[recLen:]
	}
	return out
}

// splitPath returns the parent directory inode and leaf name for a path.
func (fs *FS) splitPath(path string) (parent uint64, leaf string, err error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return 0, "", ErrBadName
	}
	parts := strings.Split(path, "/")
	cur := uint64(rootIno)
	for _, part := range parts[:len(parts)-1] {
		d := fs.dirOf(cur)
		next, ok := d.entries[part]
		if !ok {
			return 0, "", ErrNotFound
		}
		if fs.inodes[next].Mode != ModeDir {
			return 0, "", ErrNotDir
		}
		cur = next
	}
	leaf = parts[len(parts)-1]
	if leaf == "" || len(leaf) > maxNameLen {
		return 0, "", ErrBadName
	}
	return cur, leaf, nil
}

// Lookup resolves a path to an inode number.
func (fs *FS) Lookup(p *sim.Proc, path string) (uint64, error) {
	defer fs.charge(p)()
	if strings.Trim(path, "/") == "" {
		return rootIno, nil
	}
	parent, leaf, err := fs.splitPath(path)
	if err != nil {
		return 0, err
	}
	ino, ok := fs.dirOf(parent).entries[leaf]
	if !ok {
		return 0, ErrNotFound
	}
	return ino, nil
}

func (fs *FS) allocIno() (uint64, error) {
	if len(fs.freeIno) == 0 {
		return 0, ErrNoSpace
	}
	ino := fs.freeIno[len(fs.freeIno)-1]
	fs.freeIno = fs.freeIno[:len(fs.freeIno)-1]
	return ino, nil
}

func (fs *FS) createNode(p *sim.Proc, path string, mode uint32) (uint64, error) {
	parent, leaf, err := fs.splitPath(path)
	if err != nil {
		return 0, err
	}
	if fs.inodes[parent].Mode != ModeDir {
		return 0, ErrNotDir
	}
	d := fs.dirOf(parent)
	if _, dup := d.entries[leaf]; dup {
		return 0, ErrExists
	}
	ino, err := fs.allocIno()
	if err != nil {
		return 0, err
	}
	nlink := uint32(1)
	if mode == ModeDir {
		nlink = 2
	}
	fs.inodes[ino] = &inode{Mode: mode, Nlink: nlink}
	d.entries[leaf] = ino
	fs.persistDir(parent)
	fs.journal(p)
	return ino, nil
}

// Create makes a new empty regular file.
func (fs *FS) Create(p *sim.Proc, path string) (uint64, error) {
	defer fs.charge(p)()
	return fs.createNode(p, path, ModeFile)
}

// Mkdir makes a new directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) (uint64, error) {
	defer fs.charge(p)()
	return fs.createNode(p, path, ModeDir)
}

// Readdir lists a directory.
func (fs *FS) Readdir(p *sim.Proc, path string) ([]DirEntry, error) {
	defer fs.charge(p)()
	var dirIno uint64 = rootIno
	if strings.Trim(path, "/") != "" {
		parent, leaf, err := fs.splitPath(path)
		if err != nil {
			return nil, err
		}
		ino, ok := fs.dirOf(parent).entries[leaf]
		if !ok {
			return nil, ErrNotFound
		}
		dirIno = ino
	}
	if fs.inodes[dirIno].Mode != ModeDir {
		return nil, ErrNotDir
	}
	d := fs.dirOf(dirIno)
	out := make([]DirEntry, 0, len(d.entries))
	for name, ino := range d.entries {
		out = append(out, DirEntry{Name: name, Ino: ino, Mode: fs.inodes[ino].Mode})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Unlink removes a file or empty directory.
func (fs *FS) Unlink(p *sim.Proc, path string) error {
	defer fs.charge(p)()
	parent, leaf, err := fs.splitPath(path)
	if err != nil {
		return err
	}
	d := fs.dirOf(parent)
	ino, ok := d.entries[leaf]
	if !ok {
		return ErrNotFound
	}
	ind := fs.inodes[ino]
	if ind.Mode == ModeDir && len(fs.dirOf(ino).entries) > 0 {
		return ErrNotEmpty
	}
	// Release data blocks.
	for pg := int64(0); pg <= int64(ind.Size)/BlockSize; pg++ {
		blk, _ := fs.blockOf(ind, pg, false)
		fs.freeBlock(blk)
	}
	fs.freeBlock(int64(ind.Indirect))
	fs.freeBlock(int64(ind.DIndir))
	fs.cache.invalidateFile(ino)
	delete(fs.inodes, ino)
	delete(fs.dcache, ino)
	fs.freeIno = append(fs.freeIno, ino)
	delete(d.entries, leaf)
	fs.persistDir(parent)
	fs.journal(p)
	return nil
}

// Stat returns a node's attributes.
func (fs *FS) Stat(p *sim.Proc, ino uint64) (Attr, error) {
	defer fs.charge(p)()
	ind, ok := fs.inodes[ino]
	if !ok {
		return Attr{}, ErrNotFound
	}
	return Attr{Ino: ino, Mode: ind.Mode, Size: ind.Size, Nlink: ind.Nlink}, nil
}

// ---- data path ----

// Write writes data at off. With direct=true every block goes to the device
// synchronously (contiguous blocks coalesce into extent-sized device ops);
// otherwise pages land in the page cache and are written back on eviction
// or Sync.
func (fs *FS) Write(p *sim.Proc, ino uint64, off uint64, data []byte, direct bool) error {
	defer fs.charge(p)()
	ind, ok := fs.inodes[ino]
	if !ok {
		return ErrNotFound
	}
	if ind.Mode == ModeDir {
		return ErrIsDir
	}
	if direct {
		if err := fs.writeThrough(p, ino, ind, off, data); err != nil {
			return err
		}
	} else {
		if err := fs.writeCached(p, ino, ind, off, data); err != nil {
			return err
		}
	}
	if end := off + uint64(len(data)); end > ind.Size {
		ind.Size = end
	}
	return nil
}

// writeThrough performs direct I/O, coalescing contiguous blocks. As with
// O_DIRECT, cached pages covering the range are invalidated so buffered
// readers do not see stale data.
func (fs *FS) writeThrough(p *sim.Proc, ino uint64, ind *inode, off uint64, data []byte) error {
	for pg := int64(off) / BlockSize; pg <= int64(off+uint64(len(data))-1)/BlockSize; pg++ {
		if cached := fs.cache.getPage(ino, pg); cached != nil && cached.dirty {
			// Partial-page direct writes must not lose cached dirty bytes.
			fs.flushPage(p, cached)
		}
		fs.cache.invalidate(ino, pg)
	}
	// Device-contiguous blocks are consecutive in data too, so an extent is
	// a sub-slice of data (the device copies what it stores).
	type extent struct {
		devOff     int64
		start, end int // data[start:end]
	}
	var extents []extent
	for done := 0; done < len(data); {
		pg := int64(off+uint64(done)) / BlockSize
		po := int((off + uint64(done)) % BlockSize)
		n := BlockSize - po
		if n > len(data)-done {
			n = len(data) - done
		}
		blk, err := fs.blockOf(ind, pg, true)
		if err != nil {
			return err
		}
		devOff := blk*BlockSize + int64(po)
		if k := len(extents); k > 0 && extents[k-1].devOff+int64(extents[k-1].end-extents[k-1].start) == devOff {
			extents[k-1].end = done + n
		} else {
			extents = append(extents, extent{devOff: devOff, start: done, end: done + n})
		}
		done += n
	}
	for _, e := range extents {
		if err := fs.devWrite(p, e.devOff, data[e.start:e.end]); err != nil {
			return err
		}
	}
	return nil
}

// writeCached performs buffered I/O through the page cache.
func (fs *FS) writeCached(p *sim.Proc, ino uint64, ind *inode, off uint64, data []byte) error {
	for done := 0; done < len(data); {
		pg := int64(off+uint64(done)) / BlockSize
		po := int((off + uint64(done)) % BlockSize)
		n := BlockSize - po
		if n > len(data)-done {
			n = len(data) - done
		}
		pageData := fs.cache.get(ino, pg)
		if pageData == nil {
			pageData = make([]byte, BlockSize)
			if po != 0 || n != BlockSize {
				// Partial page: read-modify-write from the device.
				blk, err := fs.blockOf(ind, pg, false)
				if err != nil {
					return err
				}
				if blk != 0 {
					base, err := fs.devRead(p, blk*BlockSize, BlockSize)
					if err != nil {
						return err
					}
					copy(pageData, base)
				}
			}
		}
		copy(pageData[po:], data[done:done+n])
		if evicted := fs.cache.putDirty(ino, pg, pageData); evicted != nil {
			fs.flushPage(p, evicted)
		}
		done += n
	}
	return nil
}

// Read reads n bytes at off. Direct reads always hit the device; buffered
// reads go through the page cache with cluster read-ahead.
func (fs *FS) Read(p *sim.Proc, ino uint64, off uint64, n int, direct bool) ([]byte, error) {
	defer fs.charge(p)()
	ind, ok := fs.inodes[ino]
	if !ok {
		return nil, ErrNotFound
	}
	if ind.Mode == ModeDir {
		return nil, ErrIsDir
	}
	if off >= ind.Size {
		return nil, nil
	}
	if max := ind.Size - off; uint64(n) > max {
		n = int(max)
	}
	if direct {
		return fs.readThrough(p, ino, ind, off, n)
	}
	out := make([]byte, n)
	for done := 0; done < n; {
		pg := int64(off+uint64(done)) / BlockSize
		po := int((off + uint64(done)) % BlockSize)
		k := BlockSize - po
		if k > n-done {
			k = n - done
		}
		if pageData := fs.readPageCached(p, ind, ino, pg); pageData != nil {
			copy(out[done:done+k], pageData[po:po+k])
		}
		done += k
	}
	return out, nil
}

// readThrough performs direct I/O reads, coalescing physically contiguous
// blocks into single device operations (extent-based, like ext4).
func (fs *FS) readThrough(p *sim.Proc, ino uint64, ind *inode, off uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	type extent struct {
		devOff int64
		outOff int
		length int
	}
	var extents []extent
	for done := 0; done < n; {
		pg := int64(off+uint64(done)) / BlockSize
		po := int((off + uint64(done)) % BlockSize)
		k := BlockSize - po
		if k > n-done {
			k = n - done
		}
		// O_DIRECT semantics: flush a dirty cached page before reading the
		// device so the read observes buffered writes.
		if cached := fs.cache.getPage(ino, pg); cached != nil && cached.dirty {
			fs.flushPage(p, cached)
			cached.dirty = false
		}
		blk, _ := fs.blockOf(ind, pg, false)
		if blk != 0 {
			devOff := blk*BlockSize + int64(po)
			if m := len(extents); m > 0 && extents[m-1].devOff+int64(extents[m-1].length) == devOff &&
				extents[m-1].outOff+extents[m-1].length == done {
				extents[m-1].length += k
			} else {
				extents = append(extents, extent{devOff: devOff, outOff: done, length: k})
			}
		}
		done += k
	}
	for _, e := range extents {
		b, err := fs.devRead(p, e.devOff, e.length)
		if err != nil {
			return nil, err
		}
		copy(out[e.outOff:e.outOff+e.length], b)
	}
	return out, nil
}

// readPageCached returns one page via the cache. On a miss, cluster
// read-ahead fetches the following pages in one device read — but only for
// sequential access; random misses fetch just the wanted page (the kernel's
// readahead heuristic, and essential to not saturate the device on random
// workloads).
func (fs *FS) readPageCached(p *sim.Proc, ind *inode, ino uint64, pg int64) []byte {
	recent := fs.raRecent[ino]
	if recent == nil {
		recent = newRecentPages(128)
		fs.raRecent[ino] = recent
	}
	sequential := recent.sawRecently(pg - 1)
	recent.note(pg)
	if d := fs.cache.get(ino, pg); d != nil {
		fs.CacheHits.Inc()
		return d
	}
	ra := int64(1)
	if sequential {
		ra = int64(fs.cfg.ReadAheadPages)
	}
	if ra < 1 {
		ra = 1
	}
	start := pg
	lastPage := int64(ind.Size) / BlockSize
	var result []byte
	// Fetch up to ra pages, coalescing contiguous device blocks.
	run := []int64{}
	runStart := int64(-1)
	flush := func() {
		if len(run) == 0 {
			return
		}
		data := fs.mustDevRead(p, runStart*BlockSize, len(run)*BlockSize)
		for i, pgi := range run {
			pageData := append([]byte(nil), data[i*BlockSize:(i+1)*BlockSize]...)
			if pgi == pg {
				result = pageData
			}
			if evicted := fs.cache.putClean(ino, pgi, pageData); evicted != nil {
				fs.flushPage(p, evicted)
			}
		}
		run = run[:0]
		runStart = -1
	}
	prevBlk := int64(-2)
	for i := int64(0); i < ra && start+i <= lastPage; i++ {
		pgi := start + i
		if fs.cache.get(ino, pgi) != nil {
			continue
		}
		blk, _ := fs.blockOf(ind, pgi, false)
		if blk == 0 {
			continue
		}
		if blk != prevBlk+1 {
			flush()
			runStart = blk
		}
		run = append(run, pgi)
		prevBlk = blk
	}
	flush()
	if result == nil {
		// The wanted page was already cached by a concurrent read-ahead.
		result = fs.cache.get(ino, pg)
	}
	return result
}

// flushPage writes back one evicted dirty page.
func (fs *FS) flushPage(p *sim.Proc, pg *cachePage) {
	ind, ok := fs.inodes[pg.ino]
	if !ok {
		return // file deleted while page in cache
	}
	blk, err := fs.blockOf(ind, pg.page, true)
	if err != nil || blk == 0 {
		return
	}
	fs.mustDevWrite(p, blk*BlockSize, pg.data)
}

// Sync writes back every dirty page. On a device modeling power-fail
// semantics (crash tracking enabled) it ends with a write barrier, so a
// completed Sync is durable across a simulated power cut — the barrier's
// cost is paid only in crash-torture worlds, keeping every other world's
// timing (and hence its exported traces) unchanged.
func (fs *FS) Sync(p *sim.Proc) {
	defer fs.charge(p)()
	for _, pg := range fs.cache.dirtyPages() {
		fs.flushPage(p, pg)
		pg.dirty = false
	}
	fs.journal(p)
	if fs.dev.CrashTracking() {
		fs.dev.Barrier(p)
	}
}

// Truncate sets a file's size to zero, releasing blocks.
func (fs *FS) Truncate(p *sim.Proc, ino uint64) error {
	defer fs.charge(p)()
	ind, ok := fs.inodes[ino]
	if !ok {
		return ErrNotFound
	}
	if ind.Mode == ModeDir {
		return ErrIsDir
	}
	for pg := int64(0); pg <= int64(ind.Size)/BlockSize; pg++ {
		blk, _ := fs.blockOf(ind, pg, false)
		fs.freeBlock(blk)
	}
	fs.freeBlock(int64(ind.Indirect))
	fs.freeBlock(int64(ind.DIndir))
	ind.Direct = [directPtrs]uint32{}
	ind.Indirect, ind.DIndir = 0, 0
	ind.Size = 0
	fs.cache.invalidateFile(ino)
	fs.journal(p)
	return nil
}
