package kvfs

import (
	"encoding/binary"
	"errors"
	"strings"

	"dpc/internal/bufpool"
	"dpc/internal/kv"
	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/stats"
	"dpc/internal/xform"
)

// Errors returned by KVFS operations.
var (
	ErrNotFound = errors.New("kvfs: not found")
	ErrCorrupt  = errors.New("kvfs: corrupt block")
	ErrExists   = errors.New("kvfs: exists")
	ErrNotDir   = errors.New("kvfs: not a directory")
	ErrIsDir    = errors.New("kvfs: is a directory")
	ErrNotEmpty = errors.New("kvfs: directory not empty")
	ErrBadName  = errors.New("kvfs: bad name")
)

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Ino  uint64
}

// FS is a KVFS instance running on the DPU. It owns the namespace: inode
// allocation and the dentry/attribute caches live here (the paper notes
// KVFS sits under VFS and leverages inode/dentry caches to speed lookups).
type FS struct {
	m  *model.Machine
	cl *kv.Client

	// xf, when set, transforms big-file blocks on their way to and from
	// the disaggregated store (compression and/or DIF, per §3.3's flush
	// processing). The CPU cost is charged to the DPU; compressed blocks
	// genuinely shrink the KV values and hence the network traffic.
	xf xform.Transform
	// pool holds the scratch a transformed block is fetched into (readBlock).
	pool *bufpool.Pool

	nextIno uint64

	// Per-inode readers-writer locks. A KVFS data operation spans several
	// KV ops (attr read, content read-modify-write, small→big migration,
	// attr update) with simulated network latency between them; concurrent
	// mutators of one file — flush workers, direct writes, truncate —
	// interleaving those KV ops corrupt the file (e.g. a stale small-file
	// KV surviving migration). Readers and whole-block overwrites inside EOF
	// share it, so prefetch fan-out and the flusher's write-back keep their
	// parallelism; every other mutator is exclusive (see Write). Free locks
	// are reused.
	inoLocks  map[uint64]*sim.RWLock
	freeLocks []*sim.RWLock

	// DPU-side caches, analogous to the kernel's icache/dcache.
	dentryCache map[string]uint64 // DentryKey -> ino
	attrCache   map[uint64]Attr
	negCache    map[string]bool // known-absent dentries

	Ops stats.Counter
}

// SetNextIno raises the inode allocation cursor. Crash recovery rebuilds
// the (volatile) cursor from the maximum inode found in the surviving KV
// state so re-created files never reuse a durable inode number.
func (fs *FS) SetNextIno(v uint64) {
	if v > fs.nextIno {
		fs.nextIno = v
	}
}

// New creates a KVFS over a KV client and initializes the root directory.
func New(m *model.Machine, cl *kv.Client) *FS {
	fs := &FS{
		m:           m,
		cl:          cl,
		pool:        bufpool.New(),
		nextIno:     1,
		inoLocks:    map[uint64]*sim.RWLock{},
		dentryCache: map[string]uint64{},
		attrCache:   map[uint64]Attr{},
		negCache:    map[string]bool{},
	}
	return fs
}

// lockIno takes ino's lock, exclusive or shared.
func (fs *FS) lockIno(p *sim.Proc, ino uint64, exclusive bool) {
	l := fs.inoLocks[ino]
	if l == nil {
		if n := len(fs.freeLocks) - 1; n >= 0 {
			l, fs.freeLocks = fs.freeLocks[n], fs.freeLocks[:n]
		} else {
			l = new(sim.RWLock)
		}
		fs.inoLocks[ino] = l
	}
	l.Lock(p, exclusive)
}

func (fs *FS) unlockIno(ino uint64) {
	if l := fs.inoLocks[ino]; l.Unlock() {
		delete(fs.inoLocks, ino)
		fs.freeLocks = append(fs.freeLocks, l)
	}
}

// Mount writes the root attribute KV. Must run in a sim process before any
// other operation.
func (fs *FS) Mount(p *sim.Proc) {
	root := Attr{Ino: RootIno, Mode: ModeDir, Nlink: 2, Perm: 0o755}
	fs.putAttr(p, root)
}

// SetTransform installs a block transform (nil disables). It must be set
// before any big-file data is written: blocks are stored in encoded form.
func (fs *FS) SetTransform(t xform.Transform) { fs.xf = t }

// encodeBlock applies the transform to a block, charging the DPU.
func (fs *FS) encodeBlock(p *sim.Proc, block []byte) []byte {
	if fs.xf == nil {
		return block
	}
	fs.m.DPUExec(p, fs.xf.CyclesPerByte()*int64(len(block)))
	return fs.xf.Encode(block)
}

// decodeBlock reverses encodeBlock; corrupt blocks surface as errors.
func (fs *FS) decodeBlock(p *sim.Proc, stored []byte) ([]byte, error) {
	if fs.xf == nil {
		return stored, nil
	}
	fs.m.DPUExec(p, fs.xf.CyclesPerByte()*int64(len(stored)))
	return fs.xf.Decode(stored)
}

// charge bills one KVFS op to the DPU CPU.
func (fs *FS) charge(p *sim.Proc) {
	fs.m.DPUExec(p, fs.m.Cfg.Costs.DPUKVFSOp)
	fs.Ops.Inc()
}

// ---- attribute helpers ----

func (fs *FS) getAttr(p *sim.Proc, ino uint64) (Attr, bool) {
	if a, ok := fs.attrCache[ino]; ok {
		return a, true
	}
	v, ok := fs.cl.Get(p, AttrKey(ino))
	if !ok {
		return Attr{}, false
	}
	a, err := UnmarshalAttr(v)
	if err != nil {
		return Attr{}, false
	}
	fs.attrCache[ino] = a
	return a, true
}

func (fs *FS) putAttr(p *sim.Proc, a Attr) {
	fs.cl.Put(p, AttrKey(a.Ino), a.Marshal())
	fs.attrCache[a.Ino] = a
}

// ---- dentry helpers ----

func (fs *FS) lookupDentry(p *sim.Proc, pIno uint64, name string) (uint64, bool) {
	key := DentryKey(pIno, name)
	if ino, ok := fs.dentryCache[key]; ok {
		return ino, true
	}
	if fs.negCache[key] {
		return 0, false
	}
	v, ok := fs.cl.Get(p, key)
	if !ok {
		fs.negCache[key] = true
		return 0, false
	}
	ino := binary.LittleEndian.Uint64(v)
	fs.dentryCache[key] = ino
	return ino, true
}

func (fs *FS) putDentry(p *sim.Proc, pIno uint64, name string, ino uint64) {
	key := DentryKey(pIno, name)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], ino)
	fs.cl.Put(p, key, v[:])
	fs.dentryCache[key] = ino
	delete(fs.negCache, key)
}

func (fs *FS) delDentry(p *sim.Proc, pIno uint64, name string) {
	key := DentryKey(pIno, name)
	fs.cl.Delete(p, key)
	delete(fs.dentryCache, key)
	fs.negCache[key] = true
}

// resolve walks a path from the root, returning the final inode. Path
// resolution recursively fetches inode KVs using p_ino+name (§3.4).
func (fs *FS) resolve(p *sim.Proc, path string) (uint64, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return RootIno, nil
	}
	cur := uint64(RootIno)
	for _, part := range strings.Split(path, "/") {
		if len(part) == 0 || len(part) > MaxNameLen {
			return 0, ErrBadName
		}
		a, ok := fs.getAttr(p, cur)
		if !ok {
			return 0, ErrNotFound
		}
		if a.Mode != ModeDir {
			return 0, ErrNotDir
		}
		ino, ok := fs.lookupDentry(p, cur, part)
		if !ok {
			return 0, ErrNotFound
		}
		cur = ino
	}
	return cur, nil
}

// splitParent resolves a path's parent directory and leaf name.
func (fs *FS) splitParent(p *sim.Proc, path string) (uint64, string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return 0, "", ErrBadName
	}
	i := strings.LastIndex(path, "/")
	dir, leaf := "", path
	if i >= 0 {
		dir, leaf = path[:i], path[i+1:]
	}
	if len(leaf) == 0 || len(leaf) > MaxNameLen {
		return 0, "", ErrBadName
	}
	pIno, err := fs.resolve(p, dir)
	if err != nil {
		return 0, "", err
	}
	a, ok := fs.getAttr(p, pIno)
	if !ok {
		return 0, "", ErrNotFound
	}
	if a.Mode != ModeDir {
		return 0, "", ErrNotDir
	}
	return pIno, leaf, nil
}

// ---- namespace operations ----

// Lookup resolves a path to an inode number.
func (fs *FS) Lookup(p *sim.Proc, path string) (uint64, error) {
	fs.charge(p)
	return fs.resolve(p, path)
}

// Getattr returns a node's attributes.
func (fs *FS) Getattr(p *sim.Proc, ino uint64) (Attr, error) {
	fs.charge(p)
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return Attr{}, ErrNotFound
	}
	return a, nil
}

func (fs *FS) createNode(p *sim.Proc, path string, mode uint32) (uint64, error) {
	pIno, leaf, err := fs.splitParent(p, path)
	if err != nil {
		return 0, err
	}
	if _, exists := fs.lookupDentry(p, pIno, leaf); exists {
		return 0, ErrExists
	}
	ino := fs.nextIno
	fs.nextIno++
	nlink := uint32(1)
	if mode == ModeDir {
		nlink = 2
	}
	fs.putAttr(p, Attr{Ino: ino, Mode: mode, Nlink: nlink, Perm: 0o644})
	fs.putDentry(p, pIno, leaf, ino)
	return ino, nil
}

// Create makes an empty regular file.
func (fs *FS) Create(p *sim.Proc, path string) (uint64, error) {
	fs.charge(p)
	return fs.createNode(p, path, ModeFile)
}

// Mkdir makes a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) (uint64, error) {
	fs.charge(p)
	return fs.createNode(p, path, ModeDir)
}

// Readdir lists a directory via a single prefix scan on the inode KVs.
func (fs *FS) Readdir(p *sim.Proc, path string) ([]DirEntry, error) {
	fs.charge(p)
	ino, err := fs.resolve(p, path)
	if err != nil {
		return nil, err
	}
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return nil, ErrNotFound
	}
	if a.Mode != ModeDir {
		return nil, ErrNotDir
	}
	kvs := fs.cl.Scan(p, DentryPrefix(ino), 0)
	out := make([]DirEntry, 0, len(kvs))
	for _, kvp := range kvs {
		out = append(out, DirEntry{
			Name: NameOfDentryKey(kvp.Key),
			Ino:  binary.LittleEndian.Uint64(kvp.Val),
		})
	}
	return out, nil
}

// Unlink removes a file.
func (fs *FS) Unlink(p *sim.Proc, path string) error {
	fs.charge(p)
	pIno, leaf, err := fs.splitParent(p, path)
	if err != nil {
		return err
	}
	ino, ok := fs.lookupDentry(p, pIno, leaf)
	if !ok {
		return ErrNotFound
	}
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return ErrNotFound
	}
	if a.Mode == ModeDir {
		return ErrIsDir
	}
	fs.lockIno(p, ino, true)
	// A mutator the lock waited out may have migrated the file to big blocks
	// (or a concurrent Unlink removed it): delete what the file holds now.
	if a, ok = fs.getAttr(p, ino); !ok {
		fs.unlockIno(ino)
		return ErrNotFound
	}
	fs.deleteFileData(p, a)
	fs.cl.Delete(p, AttrKey(ino))
	delete(fs.attrCache, ino)
	fs.unlockIno(ino)
	fs.delDentry(p, pIno, leaf)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(p *sim.Proc, path string) error {
	fs.charge(p)
	pIno, leaf, err := fs.splitParent(p, path)
	if err != nil {
		return err
	}
	ino, ok := fs.lookupDentry(p, pIno, leaf)
	if !ok {
		return ErrNotFound
	}
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return ErrNotFound
	}
	if a.Mode != ModeDir {
		return ErrNotDir
	}
	if kvs := fs.cl.Scan(p, DentryPrefix(ino), 1); len(kvs) > 0 {
		return ErrNotEmpty
	}
	fs.cl.Delete(p, AttrKey(ino))
	delete(fs.attrCache, ino)
	fs.delDentry(p, pIno, leaf)
	return nil
}

// Rename moves a dentry. The inode number is stable, so file data KVs do
// not move. A destination whose path runs through the source — a directory
// moved into its own subtree, which would cut the subtree off from the
// root — is refused with ErrBadName.
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	fs.charge(p)
	oldP, oldLeaf, err := fs.splitParent(p, oldPath)
	if err != nil {
		return err
	}
	ino, ok := fs.lookupDentry(p, oldP, oldLeaf)
	if !ok {
		return ErrNotFound
	}
	newP, newLeaf, err := fs.splitParent(p, newPath)
	if err != nil {
		return err
	}
	if _, exists := fs.lookupDentry(p, newP, newLeaf); exists {
		return ErrExists
	}
	// Paths are canonical (resolve refuses empty components) and every
	// directory has one dentry, so only a path under oldPath resolves through
	// the source.
	if strings.HasPrefix(strings.Trim(newPath, "/")+"/", strings.Trim(oldPath, "/")+"/") {
		return ErrBadName
	}
	fs.putDentry(p, newP, newLeaf, ino)
	fs.delDentry(p, oldP, oldLeaf)
	return nil
}

func (fs *FS) deleteFileData(p *sim.Proc, a Attr) {
	if a.Size == 0 {
		return
	}
	if a.Size <= SmallFileMax {
		fs.cl.Delete(p, SmallKey(a.Ino))
		return
	}
	var key [bigKeyLen]byte
	for blk := uint64(0); blk*BlockSize < a.Size; blk++ {
		fs.cl.Delete(p, string(appendBigKey(key[:0], a.Ino, blk)))
	}
}

// SetSize extends a file's size without writing data (the metadata half of
// a buffered write: the client publishes the new EOF before the data pages
// reach the cache, so flush-time write-back can clamp to it). Shrinking is
// not supported — only Truncate-to-zero is. Crossing SmallFileMax migrates
// an existing small-file body to the big representation (blocks first,
// small-KV delete last) so fsck's representation invariant holds.
func (fs *FS) SetSize(p *sim.Proc, ino uint64, size uint64) error {
	fs.charge(p)
	fs.lockIno(p, ino, true)
	defer fs.unlockIno(ino)
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return ErrNotFound
	}
	if a.Mode == ModeDir {
		return ErrIsDir
	}
	if size <= a.Size {
		return nil
	}
	if a.Size > 0 && a.Size <= SmallFileMax && size > SmallFileMax {
		cur, _ := fs.cl.Get(p, SmallKey(ino))
		if err := fs.writeBigBlocks(p, ino, 0, cur); err != nil {
			return err
		}
		fs.cl.Delete(p, SmallKey(ino))
	}
	a.Size = size
	a.Blocks = (size + BlockSize - 1) / BlockSize
	fs.putAttr(p, a)
	return nil
}

// Truncate sets a file's size to zero.
func (fs *FS) Truncate(p *sim.Proc, ino uint64) error {
	fs.charge(p)
	fs.lockIno(p, ino, true)
	defer fs.unlockIno(ino)
	a, ok := fs.getAttr(p, ino)
	if !ok {
		return ErrNotFound
	}
	if a.Mode == ModeDir {
		return ErrIsDir
	}
	fs.deleteFileData(p, a)
	a.Size = 0
	a.Blocks = 0
	fs.putAttr(p, a)
	return nil
}
