// Package cache implements the paper's hybrid file data cache (§3.3): the
// cache data plane (header, meta hash table, page data) lives in host
// memory, while the control plane (replacement, flushing, prefetching) runs
// on the DPU and manipulates the meta area through PCIe DMA and atomics.
//
// The memory layout is byte-exact per Figure 5:
//
//	header : pagesize u32 | mode u32 | total u32 | free u32 | degraded u32 (+ pad to 32)
//	meta   : total entries of 32 bytes:
//	         lock u32 | status u32 | next u32 | lpn u64 | ino u64 | pad
//	data   : total pages of pagesize bytes
//
// Lock values: 0 = unlocked, 1 = write lock, 2 = read lock, 3 = invalid.
// Status values: 0 = free, 1 = clean, 2 = dirty, 3 = invalid.
package cache

import (
	"encoding/binary"
	"fmt"

	"dpc/internal/mem"
)

// Header and entry geometry.
const (
	HeaderSize = 32
	EntrySize  = 32
)

// Lock word values (paper §3.3).
const (
	LockNone    uint32 = 0
	LockWrite   uint32 = 1
	LockRead    uint32 = 2
	LockInvalid uint32 = 3
)

// Status values (paper §3.3).
const (
	StatusFree    uint32 = 0
	StatusClean   uint32 = 1
	StatusDirty   uint32 = 2
	StatusInvalid uint32 = 3
)

// Cache modes.
const (
	ModeRead  uint32 = 0
	ModeWrite uint32 = 1
)

// Layout describes one cache space in host memory.
type Layout struct {
	Base     mem.Addr
	PageSize int
	Total    int // page count
	Buckets  int // hash buckets; Total must be a multiple of Buckets
}

// NewLayout validates and returns a layout.
func NewLayout(base mem.Addr, pageSize, total, buckets int) Layout {
	if pageSize <= 0 || total <= 0 || buckets <= 0 || total%buckets != 0 {
		panic(fmt.Sprintf("cache: bad layout page=%d total=%d buckets=%d", pageSize, total, buckets))
	}
	return Layout{Base: base, PageSize: pageSize, Total: total, Buckets: buckets}
}

// Size returns the layout's total footprint in bytes.
func (l Layout) Size() int {
	return HeaderSize + l.Total*EntrySize + l.Total*l.PageSize
}

// EntriesPerBucket returns the chain length of each bucket.
func (l Layout) EntriesPerBucket() int { return l.Total / l.Buckets }

// MetaBase returns the address of entry 0.
func (l Layout) MetaBase() mem.Addr { return l.Base + HeaderSize }

// EntryAddr returns the address of meta entry i.
func (l Layout) EntryAddr(i int) mem.Addr {
	if i < 0 || i >= l.Total {
		panic(fmt.Sprintf("cache: entry %d of %d", i, l.Total))
	}
	return l.MetaBase() + mem.Addr(i*EntrySize)
}

// DataBase returns the address of page 0.
func (l Layout) DataBase() mem.Addr { return l.MetaBase() + mem.Addr(l.Total*EntrySize) }

// PageAddr returns the address of cache page i. Entry i and page i
// correspond one to one: locating the entry locates the page.
func (l Layout) PageAddr(i int) mem.Addr {
	if i < 0 || i >= l.Total {
		panic(fmt.Sprintf("cache: page %d of %d", i, l.Total))
	}
	return l.DataBase() + mem.Addr(i*l.PageSize)
}

// BucketOf hashes <ino, lpn> to a bucket index: FNV-1a over the 16
// little-endian bytes of ino then lpn, inline, since hash/fnv costs a hasher
// per lookup.
func (l Layout) BucketOf(ino, lpn uint64) int {
	h := uint64(14695981039346656037)
	for _, v := range [2]uint64{ino, lpn} {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * 1099511628211
		}
	}
	return int(h % uint64(l.Buckets))
}

// BucketEntries returns the entry indices belonging to bucket b.
func (l Layout) BucketEntries(b int) (lo, hi int) {
	e := l.EntriesPerBucket()
	return b * e, (b + 1) * e
}

// Entry is a decoded meta entry.
type Entry struct {
	Lock   uint32
	Status uint32
	Next   uint32
	LPN    uint64
	Ino    uint64
	// Ref is the CLOCK reference bit: the host data plane sets it on every
	// hit (a free local write); the DPU control plane clears it during
	// second-chance eviction sweeps.
	Ref uint8
}

// Field offsets within an entry.
const (
	offLock   = 0
	offStatus = 4
	offNext   = 8
	offLPN    = 12
	offIno    = 20
	offRef    = 28
)

// Header field offsets past the geometry: the free-page counter, and the
// degraded flag the ctl sets over PCIe while backend write-back keeps failing.
const (
	hdrFree     = 12
	hdrDegraded = 16
)

// ReadEntry decodes entry i from the region (no timing; callers on the DPU
// side must have DMA'd the bytes or pay atomics per field).
func ReadEntry(r *mem.Region, l Layout, i int) Entry {
	return DecodeEntry(r.Slice(l.EntryAddr(i), EntrySize))
}

// WriteEntryMeta stores entry i's fields (host-local).
func WriteEntryMeta(r *mem.Region, l Layout, i int, e Entry) {
	encodeEntry(r.Slice(l.EntryAddr(i), EntrySize), e)
}

// DecodeEntry decodes an entry from raw bytes (e.g. a DMA'd meta chunk).
// It and encodeEntry are the one spelling of the entry's field list.
func DecodeEntry(b []byte) Entry {
	le := binary.LittleEndian
	return Entry{
		Lock:   le.Uint32(b[offLock:]),
		Status: le.Uint32(b[offStatus:]),
		Next:   le.Uint32(b[offNext:]),
		LPN:    le.Uint64(b[offLPN:]),
		Ino:    le.Uint64(b[offIno:]),
		Ref:    b[offRef],
	}
}

// encodeEntry serializes an entry into a 32-byte buffer; the padding after
// the ref byte is left as it is.
func encodeEntry(b []byte, e Entry) {
	le := binary.LittleEndian
	le.PutUint32(b[offLock:], e.Lock)
	le.PutUint32(b[offStatus:], e.Status)
	le.PutUint32(b[offNext:], e.Next)
	le.PutUint64(b[offLPN:], e.LPN)
	le.PutUint64(b[offIno:], e.Ino)
	b[offRef] = e.Ref
}

// InitHeader writes the cache header and formats every entry as free,
// chaining each bucket's entries through the next pointers.
func InitHeader(r *mem.Region, l Layout, mode uint32) {
	r.PutUint32(l.Base+0, uint32(l.PageSize))
	r.PutUint32(l.Base+4, mode)
	r.PutUint32(l.Base+8, uint32(l.Total))
	r.PutUint32(l.Base+hdrFree, uint32(l.Total))
	r.PutUint32(l.Base+hdrDegraded, 0) // starts healthy
	for i := 0; i < l.Total; i++ {
		WriteEntryMeta(r, l, i, Entry{Lock: LockNone, Status: StatusFree, Next: l.chainNext(i)})
	}
}

// chainNext is entry i's next pointer: its successor in the bucket, circular.
// It is written at format time and never changes.
func (l Layout) chainNext(i int) uint32 {
	lo, hi := l.BucketEntries(i / l.EntriesPerBucket())
	if i == hi-1 {
		return uint32(lo)
	}
	return uint32(i + 1)
}

// Fsck checks the meta table's invariants and returns one line per violation.
// It is meant for a quiesce point — no host thread, fill, eviction or flush
// inside an entry — where every lock word must be free again: a lock leaked
// by either side of the entry protocol shows up here rather than as a hang
// much later. Host-local and free in virtual time.
func Fsck(r *mem.Region, l Layout) []string {
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, "cache: "+fmt.Sprintf(format, args...)) }
	free := 0
	at := map[[2]uint64]int{}
	for i := 0; i < l.Total; i++ {
		e := ReadEntry(r, l, i)
		if e.Lock != LockNone {
			bad("entry %d: lock word %d still held", i, e.Lock)
		}
		if want := l.chainNext(i); e.Next != want {
			bad("entry %d: next pointer %d, formatted as %d", i, e.Next, want)
		}
		if e.Status == StatusFree {
			free++
			continue
		}
		if e.Status == StatusInvalid {
			bad("entry %d: fill claim for <%d,%d> left pending", i, e.Ino, e.LPN)
		}
		if b, want := i/l.EntriesPerBucket(), l.BucketOf(e.Ino, e.LPN); b != want {
			bad("entry %d: <%d,%d> sits in bucket %d, hashes to %d", i, e.Ino, e.LPN, b, want)
		}
		key := [2]uint64{e.Ino, e.LPN}
		if j, dup := at[key]; dup {
			bad("entries %d and %d both hold <%d,%d>", j, i, e.Ino, e.LPN)
		}
		at[key] = i
	}
	if got := int(HeaderFree(r, l)); got != free {
		bad("header free counter %d, %d entries are free", got, free)
	}
	return probs
}

// HeaderFree reads the free-page counter.
func HeaderFree(r *mem.Region, l Layout) uint32 { return r.Uint32(l.Base + hdrFree) }

// AddHeaderFree adjusts the free-page counter.
func AddHeaderFree(r *mem.Region, l Layout, delta int32) {
	r.PutUint32(l.Base+hdrFree, uint32(int32(HeaderFree(r, l))+delta))
}
