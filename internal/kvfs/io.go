package kvfs

import (
	"dpc/internal/cache"
	"dpc/internal/sim"
)

// eachBlock runs do on every block of inode ino that the file range [off,
// off+len(buf)) touches, with the block's number, the range's offset inside
// the block and the block's window of buf, and returns an error do returned.
// A one-block range runs on p; a longer one forks a process per block, since
// the blocks live on different KV shards, the way a scatter-gather client
// would. do builds the block's key on its own stack (a key built here would
// escape through the func value).
func (fs *FS) eachBlock(p *sim.Proc, ino, off uint64, buf []byte, do func(fs *FS, pp *sim.Proc, ino, blk uint64, bo int, window []byte) error) error {
	if len(buf) == 0 {
		return nil
	}
	first := off / BlockSize
	n := int((off+uint64(len(buf))-1)/BlockSize-first) + 1
	if n == 1 {
		return do(fs, p, ino, first, int(off%BlockSize), buf)
	}
	var err error
	p.Fork("kvfs-io", n, func(pp *sim.Proc, i int) {
		blk, bo := first+uint64(i), 0
		if i == 0 {
			bo = int(off % BlockSize)
		}
		lo := int(blk*BlockSize + uint64(bo) - off)
		if e := do(fs, pp, ino, blk, bo, buf[lo:min(lo+BlockSize-bo, len(buf))]); e != nil {
			err = e
		}
	})
	return err
}

// Write stores data at offset off. Small files (final size <= 8 KB) live in
// a single small-file KV that is rewritten whole on every update; once a
// file grows past 8 KB it migrates to the big-file representation, where
// updates are written in place at 8 KB block granularity (§3.4).
//
// A big-file write of whole blocks that ends at or before EOF (an
// overwrite) changes neither the size nor the representation, and each of
// its blocks is one KV Put, so it holds the inode lock shared: overwrites of
// one file run in parallel with each other and with reads. Every other
// write holds it exclusive and reads the attribute again once it does.
func (fs *FS) Write(p *sim.Proc, ino uint64, off uint64, data []byte) error {
	s := fs.m.Obs.Begin(p, "kvfs.write")
	defer s.End(p)
	fs.charge(p)
	fs.lockIno(p, ino, false)
	a, ok := fs.getAttr(p, ino)
	if ok && a.Mode != ModeDir && !overwrites(a, off, len(data)) {
		fs.unlockIno(ino)
		fs.lockIno(p, ino, true)
		a, ok = fs.getAttr(p, ino)
	}
	defer fs.unlockIno(ino)
	if !ok {
		return ErrNotFound
	}
	if a.Mode == ModeDir {
		return ErrIsDir
	}
	newSize := a.Size
	if end := off + uint64(len(data)); end > newSize {
		newSize = end
	}

	switch {
	case newSize <= SmallFileMax:
		// Small file: read-modify-write the whole KV.
		buf := make([]byte, newSize)
		if a.Size > 0 {
			fs.cl.GetInto(p, SmallKey(ino), 0, buf)
		}
		copy(buf[off:], data)
		fs.cl.Put(p, SmallKey(ino), buf)

	case a.Size <= SmallFileMax && a.Size > 0:
		// Migration: the file just outgrew the small representation. Write
		// the big blocks first and delete the small KV only once they are
		// durable — the reverse order loses the whole file body if anything
		// fails between the delete and the block writes.
		cur, _ := fs.cl.Get(p, SmallKey(ino))
		if err := fs.writeBigBlocks(p, ino, 0, cur); err != nil {
			return err
		}
		if err := fs.writeBigBlocks(p, ino, off, data); err != nil {
			return err
		}
		fs.cl.Delete(p, SmallKey(ino))

	default:
		if err := fs.writeBigBlocks(p, ino, off, data); err != nil {
			return err
		}
	}

	if newSize != a.Size {
		a.Size = newSize
		a.Blocks = (newSize + BlockSize - 1) / BlockSize
		fs.putAttr(p, a)
	}
	return nil
}

// overwrites reports whether writing n bytes at off to the file a is an
// overwrite: whole big-file blocks, ending at or before EOF.
func overwrites(a Attr, off uint64, n int) bool {
	return a.Size > SmallFileMax && off%BlockSize == 0 && n%BlockSize == 0 && off+uint64(n) <= a.Size
}

// writeBigBlocks updates the big-file KVs covering [off, off+len(data)).
func (fs *FS) writeBigBlocks(p *sim.Proc, ino uint64, off uint64, data []byte) error {
	return fs.eachBlock(p, ino, off, data, (*FS).writeBlock)
}

// writeBlock writes chunk into block blk of ino from block offset bo. A full
// block is a pure in-place put; a partial one is read-modify-write.
func (fs *FS) writeBlock(pp *sim.Proc, ino, blk uint64, bo int, chunk []byte) error {
	// The key string does not allocate: a KV op copies its key and keeps
	// none of it, so the conversion stays on the stack.
	var kb [bigKeyLen]byte
	key := string(appendBigKey(kb[:0], ino, blk))
	if bo == 0 && len(chunk) == BlockSize {
		fs.cl.Put(pp, key, fs.encodeBlock(pp, chunk))
		return nil
	}
	buf := make([]byte, BlockSize)
	// An undecodable block leaves buf zero and is rewritten whole.
	_ = fs.readBlock(pp, ino, blk, 0, buf)
	copy(buf[bo:], chunk)
	fs.cl.Put(pp, key, fs.encodeBlock(pp, buf))
	return nil
}

// readBlock fills dst with the block's decoded bytes from block offset bo,
// zeros where the block is absent or shorter; a block that fails to decode
// is an error and leaves dst as it was. Untransformed blocks land in dst
// straight from the shard; with a transform the stored block is fetched whole
// into a pooled scratch and decoded from there.
func (fs *FS) readBlock(pp *sim.Proc, ino, blk uint64, bo int, dst []byte) error {
	var kb [bigKeyLen]byte
	key := string(appendBigKey(kb[:0], ino, blk))
	if fs.xf == nil {
		n, _ := fs.cl.GetInto(pp, key, bo, dst)
		clear(dst[min(max(n-bo, 0), len(dst)):]) // what the value did not cover
		return nil
	}
	stored := fs.pool.Get(2 * BlockSize)
	n, ok := fs.cl.GetInto(pp, key, 0, stored)
	if n > len(stored) { // an encoding that more than doubled the block
		fs.pool.Put(stored)
		stored = fs.pool.Get(n)
		n, ok = fs.cl.GetInto(pp, key, 0, stored)
	}
	defer fs.pool.Put(stored)
	var dec []byte
	if ok {
		var err error
		if dec, err = fs.decodeBlock(pp, stored[:n]); err != nil {
			return ErrCorrupt
		}
	}
	k := copy(dst, dec[min(bo, len(dec)):])
	clear(dst[k:])
	return nil
}

// Read returns up to n bytes from offset off in a fresh buffer.
func (fs *FS) Read(p *sim.Proc, ino uint64, off uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	got, err := fs.ReadInto(p, ino, off, out)
	if err != nil || got == 0 {
		return nil, err
	}
	return out[:got], nil
}

// ReadInto reads up to len(dst) bytes from offset off into dst, which the
// caller owns, and returns how many it read: fewer than len(dst) only at
// EOF. Every byte counted is written — holes and short blocks as zeros — so
// dst need not be cleared beforehand; bytes past the count are untouched.
// Each block's window of dst is filled by the KV shard itself, so no
// block-sized buffer exists between the store and dst.
func (fs *FS) ReadInto(p *sim.Proc, ino uint64, off uint64, dst []byte) (int, error) {
	s := fs.m.Obs.Begin(p, "kvfs.read")
	defer s.End(p)
	fs.charge(p)
	fs.lockIno(p, ino, false)
	defer fs.unlockIno(ino)
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return 0, ErrNotFound
	}
	if a.Mode == ModeDir {
		return 0, ErrIsDir
	}
	if off >= a.Size {
		return 0, nil
	}
	n := len(dst)
	if max := a.Size - off; uint64(n) > max {
		n = int(max)
	}
	if a.Size <= SmallFileMax {
		// A small-file KV shorter than the attribute size reads short.
		have, _ := fs.cl.GetInto(p, SmallKey(ino), int(off), dst[:n])
		return min(max(have-int(off), 0), n), nil
	}
	if err := fs.eachBlock(p, ino, off, dst[:n], (*FS).readBlock); err != nil {
		return 0, err
	}
	return n, nil
}

// ---- cache.Backend adapter ----

// PageBackend adapts one KVFS file-system instance to the hybrid cache's
// Backend interface. Pages are addressed by (ino, lpn) with lpn in units of
// the cache's page size.
type PageBackend struct {
	FS *FS
}

// ReadPage reads one page; ok=false past EOF.
func (b PageBackend) ReadPage(p *sim.Proc, ino, lpn uint64, pageSize int) ([]byte, bool) {
	pages := b.ReadPageRange(p, ino, lpn, 1, pageSize)
	if len(pages) == 0 {
		return nil, false
	}
	return pages[0], true
}

// WritePage implements cache.Backend. The cache flushes whole pages, but
// the file's true EOF is whatever metadata says: the write-back is clamped
// to attr.Size so flushing the tail page of a 10 000-byte file does not
// grow it to the next page boundary with zero padding. Pages wholly past
// EOF (truncated or unlinked while cached) are dropped.
func (b PageBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	off := lpn * uint64(pageSize)
	a, ok := b.FS.getAttr(p, ino)
	if !ok || off >= a.Size {
		return nil
	}
	if end := off + uint64(len(data)); end > a.Size {
		data = data[:a.Size-off]
	}
	return b.FS.Write(p, ino, off, data)
}

// ReadPageRange implements cache.RangeBackend: the whole run is one KVFS
// read (one op charge, block gets fanned out in parallel) into one buffer.
func (b PageBackend) ReadPageRange(p *sim.Proc, ino, lpn uint64, n, pageSize int) [][]byte {
	a, ok := b.FS.getAttr(p, ino)
	off := lpn * uint64(pageSize)
	if !ok || off >= a.Size {
		return nil
	}
	return cache.ReadPages(n, pageSize, func(buf []byte) (int, error) { return b.FS.ReadInto(p, ino, off, buf) })
}
