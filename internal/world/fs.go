package world

import (
	"errors"

	"dpc"
	"dpc/internal/dfs"
	"dpc/internal/kvfs"
	"dpc/internal/localfs"
	"dpc/internal/sim"
)

// FS is a world's file surface: what the figures measure and the torture
// harness replays. A file is its inode number, and tid is the calling
// thread, which a DPC client maps onto an nvme-fs queue. Lookup also
// returns the size it saw; ReadInto reads up to len(dst) bytes and returns
// the count; Truncate cuts to zero length; Readdir lists entry names. The
// host DFS clients have no buffered path and ignore direct, and an
// operation the stack lacks returns errors.ErrUnsupported.
type FS interface {
	Create(p *sim.Proc, tid int, path string) (uint64, error)
	Lookup(p *sim.Proc, tid int, path string) (ino, size uint64, err error)
	Write(p *sim.Proc, tid int, ino, off uint64, data []byte, direct bool) error
	ReadInto(p *sim.Proc, tid int, ino, off uint64, dst []byte, direct bool) (int, error)
	Truncate(p *sim.Proc, tid int, ino uint64) error
	Fsync(p *sim.Proc, tid int, ino uint64) error
	Stat(p *sim.Proc, tid int, path string) (size uint64, dir bool, err error)
	Mkdir(p *sim.Proc, tid int, path string) error
	Unlink(p *sim.Proc, tid int, path string) error
	Rename(p *sim.Proc, tid int, from, to string) error
	Readdir(p *sim.Proc, tid int, path string) ([]string, error)
}

// names lists the entry names of a directory listing.
func names[E any](ents []E, name func(E) string) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = name(e)
	}
	return out
}

// ext4FS is localfs's surface: one namespace with no per-thread state and
// no rename. Its sync is global, a superset of fsync.
type ext4FS struct{ fs *localfs.FS }

func (f ext4FS) Create(p *sim.Proc, _ int, path string) (uint64, error) { return f.fs.Create(p, path) }
func (f ext4FS) Lookup(p *sim.Proc, _ int, path string) (uint64, uint64, error) {
	return f.fs.Lookup(p, path)
}
func (f ext4FS) Truncate(p *sim.Proc, _ int, ino uint64) error { return f.fs.Truncate(p, ino) }
func (f ext4FS) Unlink(p *sim.Proc, _ int, path string) error  { return f.fs.Unlink(p, path) }
func (ext4FS) Rename(*sim.Proc, int, string, string) error     { return errors.ErrUnsupported }

func (f ext4FS) Write(p *sim.Proc, _ int, ino, off uint64, data []byte, direct bool) error {
	return f.fs.Write(p, ino, off, data, direct)
}

func (f ext4FS) ReadInto(p *sim.Proc, _ int, ino, off uint64, dst []byte, direct bool) (int, error) {
	data, err := f.fs.Read(p, ino, off, len(dst), direct)
	return copy(dst, data), err
}

func (f ext4FS) Fsync(p *sim.Proc, _ int, _ uint64) error {
	f.fs.Sync(p)
	return nil
}

func (f ext4FS) Stat(p *sim.Proc, _ int, path string) (uint64, bool, error) {
	ino, _, err := f.fs.Lookup(p, path)
	if err != nil {
		return 0, false, err
	}
	a, err := f.fs.Stat(p, ino)
	return a.Size, a.Mode == localfs.ModeDir, err
}

func (f ext4FS) Mkdir(p *sim.Proc, _ int, path string) error {
	_, err := f.fs.Mkdir(p, path)
	return err
}

func (f ext4FS) Readdir(p *sim.Proc, _ int, path string) ([]string, error) {
	ents, err := f.fs.Readdir(p, path)
	return names(ents, func(e localfs.DirEntry) string { return e.Name }), err
}

// dpcFS is a DPC client's surface: KVFS or the offloaded DFS client. Create
// and Lookup open the file and keep its handle, so an op on the inode they
// return sees the size that open published.
type dpcFS struct {
	cl    *dpc.Client
	files map[uint64]*dpc.File
}

func (f dpcFS) open(h *dpc.File, err error) (uint64, uint64, error) {
	if err != nil {
		return 0, 0, err
	}
	f.files[h.Ino] = h
	return h.Ino, h.Size(), nil
}

func (f dpcFS) Create(p *sim.Proc, tid int, path string) (uint64, error) {
	ino, _, err := f.open(f.cl.Create(p, tid, path))
	return ino, err
}

func (f dpcFS) Lookup(p *sim.Proc, tid int, path string) (uint64, uint64, error) {
	return f.open(f.cl.Open(p, tid, path))
}

func (f dpcFS) Write(p *sim.Proc, tid int, ino, off uint64, data []byte, direct bool) error {
	return f.files[ino].Write(p, tid, off, data, direct)
}

func (f dpcFS) ReadInto(p *sim.Proc, tid int, ino, off uint64, dst []byte, direct bool) (int, error) {
	return f.files[ino].ReadInto(p, tid, off, dst, direct)
}

func (f dpcFS) Truncate(p *sim.Proc, tid int, ino uint64) error { return f.files[ino].Truncate(p, tid) }
func (f dpcFS) Fsync(p *sim.Proc, tid int, ino uint64) error    { return f.files[ino].Sync(p, tid) }
func (f dpcFS) Mkdir(p *sim.Proc, tid int, path string) error   { return f.cl.Mkdir(p, tid, path) }
func (f dpcFS) Unlink(p *sim.Proc, tid int, path string) error  { return f.cl.Unlink(p, tid, path) }
func (f dpcFS) Rename(p *sim.Proc, tid int, from, to string) error {
	return f.cl.Rename(p, tid, from, to)
}

func (f dpcFS) Stat(p *sim.Proc, tid int, path string) (uint64, bool, error) {
	st, err := f.cl.StatPath(p, tid, path)
	return st.Size, st.Mode == kvfs.ModeDir, err
}

func (f dpcFS) Readdir(p *sim.Proc, tid int, path string) ([]string, error) {
	ents, err := f.cl.Readdir(p, tid, path)
	return names(ents, func(e dpc.DirEntry) string { return e.Name }), err
}

// dfsFS is a host DFS client's surface: a flat namespace of files written
// and read in whole erasure-coded blocks, with no page cache — a read past
// EOF is the caller's to clamp, as the kernel clamps before it issues one.
type dfsFS struct{ cl dfs.Client }

func (f dfsFS) Create(p *sim.Proc, _ int, path string) (uint64, error) { return f.cl.Create(p, path) }
func (f dfsFS) Lookup(p *sim.Proc, _ int, path string) (uint64, uint64, error) {
	return f.cl.Lookup(p, path)
}
func (dfsFS) Truncate(*sim.Proc, int, uint64) error            { return errors.ErrUnsupported }
func (dfsFS) Fsync(*sim.Proc, int, uint64) error               { return errors.ErrUnsupported }
func (dfsFS) Mkdir(*sim.Proc, int, string) error               { return errors.ErrUnsupported }
func (dfsFS) Unlink(*sim.Proc, int, string) error              { return errors.ErrUnsupported }
func (dfsFS) Rename(*sim.Proc, int, string, string) error      { return errors.ErrUnsupported }
func (dfsFS) Readdir(*sim.Proc, int, string) ([]string, error) { return nil, errors.ErrUnsupported }

func (f dfsFS) Write(p *sim.Proc, _ int, ino, off uint64, data []byte, _ bool) error {
	return f.cl.Write(p, ino, off, data)
}

func (f dfsFS) ReadInto(p *sim.Proc, _ int, ino, off uint64, dst []byte, _ bool) (int, error) {
	data, err := f.cl.Read(p, ino, off, len(dst))
	return copy(dst, data), err
}

func (f dfsFS) Stat(p *sim.Proc, _ int, path string) (uint64, bool, error) {
	_, size, err := f.cl.Lookup(p, path)
	return size, false, err
}
