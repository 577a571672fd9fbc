// Package localfs implements the local file system baseline ("Ext4" in the
// paper): a block-based file system with real on-disk structures — a
// superblock, inode table, block bitmap, directories and indirect block
// maps — stored on the simulated NVMe SSD. All of its CPU work is charged to
// the host pool, which is exactly the cost DPC eliminates.
//
// The data path supports both direct I/O (used in Figure 7) and buffered
// I/O through a page cache with cluster read-ahead (used in Figure 8).
package localfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/stats"
)

// BlockSize is the file system block size.
const BlockSize = 4096

const (
	inodeSize    = 128
	ptrsPerBlock = BlockSize / 4
	directPtrs   = 10
	rootIno      = 1
	magic        = 0xE47F5CD1
	maxNameLen   = 255
	direntFixed  = 12 // ino u64, nameLen u16, recLen u16
)

// Mode bits.
const (
	ModeFile uint32 = 1
	ModeDir  uint32 = 2
)

// Errors returned by file operations.
var (
	ErrNotFound = errors.New("localfs: not found")
	ErrExists   = errors.New("localfs: exists")
	ErrNotDir   = errors.New("localfs: not a directory")
	ErrIsDir    = errors.New("localfs: is a directory")
	ErrNotEmpty = errors.New("localfs: directory not empty")
	ErrNoSpace  = errors.New("localfs: no space")
	ErrBadName  = errors.New("localfs: bad name")
)

// Attr describes a file or directory.
type Attr struct {
	Ino   uint64
	Mode  uint32
	Size  uint64
	Nlink uint32
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Ino  uint64
	Mode uint32
}

// Config tunes the file system.
//
//dpclint:params
type Config struct {
	InodeCount     int
	PageCachePages int   // buffered-I/O cache capacity in 4 KB pages
	ReadAheadPages int   // cluster read-ahead size for sequential reads
	OpCycles       int64 // host CPU cost per operation (VFS+ext4+block layer)
	// ContentionCycles is charged per concurrent in-flight operation,
	// modeling block-layer lock contention and scheduler overhead; it is
	// why local Ext4 burns host CPU at high thread counts (Figure 7c).
	ContentionCycles int64
	JournalWrites    bool // charge one 4K journal write per metadata change
}

// DefaultConfig matches the calibration used by the experiments.
func DefaultConfig() Config {
	return Config{
		InodeCount:       1 << 16,
		PageCachePages:   32768,
		ReadAheadPages:   32,
		OpCycles:         26_000,
		ContentionCycles: 1100,
		JournalWrites:    true,
	}
}

type inode struct {
	Mode     uint32
	Nlink    uint32
	Size     uint64
	Direct   [directPtrs]uint32
	Indirect uint32
	DIndir   uint32
}

// FS is a mounted file system instance.
type FS struct {
	m   *model.Machine
	dev *ssd.Device
	cfg Config

	// Geometry (block numbers).
	inodeStart  int64
	inodeBlocks int64
	dataStart   int64
	totalBlocks int64

	// Cached metadata (as ext4 caches inodes/bitmaps in RAM).
	inodes   map[uint64]*inode
	dcache   map[uint64]*dirState
	freeIno  []uint64
	bitmap   []uint64 // one bit per data block
	nextBlk  int64    // next-fit allocation cursor
	freeBlks int64

	cache *pageCache
	// raRecent tracks recently-read pages per inode (a bounded ring):
	// cluster read-ahead only fires when the previous page was read
	// recently, i.e. on sequential streams — including multiple concurrent
	// streams per file, like the kernel's per-fd readahead state.
	raRecent map[uint64]*recentPages

	inflight int

	// Counters for experiments.
	Ops       stats.Counter
	CacheHits stats.Counter
}

// New formats the device and mounts a fresh file system.
func New(m *model.Machine, dev *ssd.Device, cfg Config) *FS {
	if cfg.InodeCount < 16 || cfg.PageCachePages < 0 {
		panic(fmt.Sprintf("localfs: bad config %+v", cfg))
	}
	capBlocks := int64(dev.Config().CapacityMB) * 1024 * 1024 / BlockSize
	inodeBlocks := int64(cfg.InodeCount*inodeSize+BlockSize-1) / BlockSize
	fs := &FS{
		m:           m,
		dev:         dev,
		cfg:         cfg,
		inodeStart:  1,
		inodeBlocks: inodeBlocks,
		dataStart:   1 + inodeBlocks,
		totalBlocks: capBlocks,
		inodes:      map[uint64]*inode{},
		cache:       newPageCache(cfg.PageCachePages),
		raRecent:    map[uint64]*recentPages{},
	}
	fs.nextBlk = fs.dataStart
	// The last block is reserved for the journal commit area.
	fs.freeBlks = capBlocks - 1 - fs.dataStart
	fs.bitmap = make([]uint64, (capBlocks+63)/64)
	for ino := uint64(cfg.InodeCount); ino > rootIno; ino-- {
		fs.freeIno = append(fs.freeIno, ino)
	}
	// Superblock, written raw at format time.
	var sb [BlockSize]byte
	le := binary.LittleEndian
	le.PutUint32(sb[0:], magic)
	le.PutUint64(sb[4:], uint64(capBlocks))
	le.PutUint64(sb[12:], uint64(cfg.InodeCount))
	dev.WriteRaw(0, sb[:])
	// Root directory.
	fs.inodes[rootIno] = &inode{Mode: ModeDir, Nlink: 2}
	return fs
}

// charge bills the per-op host CPU cost, including the contention term.
func (fs *FS) charge(p *sim.Proc) func() {
	fs.inflight++
	cycles := fs.cfg.OpCycles + fs.cfg.ContentionCycles*int64(fs.inflight)
	fs.m.HostExec(p, cycles)
	fs.Ops.Inc()
	return func() { fs.inflight-- }
}

// journal charges a jbd2-style commit-block write. The journal area is the
// last block of the device, well away from the superblock (the fsck test
// suite caught an earlier version writing the commit block over block 0).
func (fs *FS) journal(p *sim.Proc) {
	if fs.cfg.JournalWrites {
		fs.mustDevWrite(p, (fs.totalBlocks-1)*BlockSize, make([]byte, BlockSize))
	}
}

// ---- block allocation ----

func (fs *FS) bitGet(b int64) bool { return fs.bitmap[b/64]>>(uint(b)%64)&1 == 1 }
func (fs *FS) bitSet(b int64)      { fs.bitmap[b/64] |= 1 << (uint(b) % 64) }
func (fs *FS) bitClr(b int64)      { fs.bitmap[b/64] &^= 1 << (uint(b) % 64) }

// allocBlock returns a free data block (next-fit for contiguity).
func (fs *FS) allocBlock() (int64, error) {
	if fs.freeBlks == 0 {
		return 0, ErrNoSpace
	}
	for scanned := int64(0); scanned < fs.totalBlocks; scanned++ {
		b := fs.nextBlk
		fs.nextBlk++
		if fs.nextBlk >= fs.totalBlocks-1 { // last block: journal area
			fs.nextBlk = fs.dataStart
		}
		if !fs.bitGet(b) {
			fs.bitSet(b)
			fs.freeBlks--
			return b, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) freeBlock(b int64) {
	if b == 0 {
		return
	}
	fs.bitClr(b)
	fs.freeBlks++
}

// ---- inode block mapping ----

// blockOf maps a file page index to a device block, allocating on demand
// when alloc is true. Indirect map blocks are stored on the device for
// realism (read/written raw; they are metadata cached in RAM by real ext4).
func (fs *FS) blockOf(ind *inode, page int64, alloc bool) (int64, error) {
	switch {
	case page < directPtrs:
		b := int64(ind.Direct[page])
		if b == 0 && alloc {
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			ind.Direct[page] = uint32(nb)
			return nb, nil
		}
		return b, nil
	case page < directPtrs+ptrsPerBlock:
		return fs.indirectLookup(&ind.Indirect, page-directPtrs, alloc)
	default:
		idx := page - directPtrs - ptrsPerBlock
		if idx >= int64(ptrsPerBlock)*int64(ptrsPerBlock) {
			return 0, fmt.Errorf("localfs: file offset beyond double-indirect range")
		}
		// Double indirect: first level picks a single-indirect block.
		if ind.DIndir == 0 {
			if !alloc {
				return 0, nil
			}
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			ind.DIndir = uint32(nb)
			fs.dev.WriteRaw(nb*BlockSize, make([]byte, BlockSize))
		}
		l1Slot := idx / ptrsPerBlock
		l1Addr := int64(ind.DIndir)*BlockSize + l1Slot*4
		l1 := binary.LittleEndian.Uint32(fs.dev.ReadRaw(l1Addr, 4))
		if l1 == 0 {
			if !alloc {
				return 0, nil
			}
			nb, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			l1 = uint32(nb)
			var b4 [4]byte
			binary.LittleEndian.PutUint32(b4[:], l1)
			fs.dev.WriteRaw(l1Addr, b4[:])
			fs.dev.WriteRaw(int64(nb)*BlockSize, make([]byte, BlockSize))
		}
		ref := l1
		blk, err := fs.indirectLookup(&ref, idx%ptrsPerBlock, alloc)
		return blk, err
	}
}

// indirectLookup resolves slot `slot` of the single-indirect block *ref,
// allocating the map block and/or the data block as needed.
func (fs *FS) indirectLookup(ref *uint32, slot int64, alloc bool) (int64, error) {
	if *ref == 0 {
		if !alloc {
			return 0, nil
		}
		nb, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		*ref = uint32(nb)
		fs.dev.WriteRaw(nb*BlockSize, make([]byte, BlockSize))
	}
	slotAddr := int64(*ref)*BlockSize + slot*4
	b := binary.LittleEndian.Uint32(fs.dev.ReadRaw(slotAddr, 4))
	if b == 0 {
		if !alloc {
			return 0, nil
		}
		nb, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		b = uint32(nb)
		var b4 [4]byte
		binary.LittleEndian.PutUint32(b4[:], b)
		fs.dev.WriteRaw(slotAddr, b4[:])
	}
	return int64(b), nil
}
