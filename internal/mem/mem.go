// Package mem models byte-addressable physical memory regions, such as host
// DRAM exposed to a DPU over PCIe. Regions hold real bytes: the NVMe rings,
// virtio rings and hybrid-cache layout are all encoded into regions exactly
// as they would be in hardware, and the tests assert on those encodings.
//
// All multi-byte accessors are little-endian, matching NVMe and virtio wire
// formats.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated physical address.
type Addr uint64

// pageShift sizes the lookup index's pages: 4 KiB.
const pageShift = 12

// Region is a span of simulated physical address space starting at Base.
// It is also its own allocator: Alloc reserves address ranges in ascending
// order, up to a fixed capacity, and only reserved bytes exist. Each
// reservation is backed by its own allocation, made on its first access,
// zeroed and exactly its reserved size, so a reservation nothing touches
// costs no memory; a backing is never copied or moved, so a view Slice
// returns aliases the region for the region's life. An access must lie
// inside one reservation: the alignment gap between two reservations,
// everything past the last one, and a range that runs from one reservation
// into the next, even an adjacent one, are not memory.
type Region struct {
	name  string
	base  Addr
	limit Addr   // base + capacity
	next  Addr   // one past the last reservation
	spans []span // reservations, ascending
	// pages indexes spans by 4 KiB page of [base, next): pages[i] is the
	// first span that ends past page i's start.
	pages    []int32
	resident int  // bytes of the backed spans
	last     span // the span the last lookup returned, backed
}

// span is one reservation. buf is its bytes, nil until its first access.
type span struct {
	start, end Addr
	buf        []byte
}

// NewArena returns an empty region at base that Alloc may fill up to
// capacity bytes.
func NewArena(name string, base Addr, capacity int) *Region {
	return &Region{name: name, base: base, limit: base + Addr(capacity), next: base}
}

// NewRegion returns a region holding one reservation of size bytes at base.
func NewRegion(name string, base Addr, size int) *Region {
	r := NewArena(name, base, size)
	r.Alloc(size, 1)
	return r
}

// Alloc reserves size bytes aligned to align (a power of two) above every
// earlier reservation and returns its address. It panics when the
// reservation would pass the region's capacity.
func (r *Region) Alloc(size, align int) Addr {
	a := (uint64(r.next) + uint64(align) - 1) &^ (uint64(align) - 1)
	if size < 0 || a+uint64(size) > uint64(r.limit) {
		panic(fmt.Sprintf("mem: arena %q exhausted allocating %d bytes (capacity %d, %d reserved)",
			r.name, size, uint64(r.limit-r.base), uint64(r.next-r.base)))
	}
	addr := Addr(a)
	r.next = addr + Addr(size)
	if size > 0 {
		// Every page up to the new end that no earlier span reaches into
		// starts below this span's end, so this span is its first.
		last := int((r.next - r.base - 1) >> pageShift)
		for len(r.pages) <= last {
			r.pages = append(r.pages, int32(len(r.spans)))
		}
		r.spans = append(r.spans, span{start: addr, end: r.next})
	}
	return addr
}

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Base returns the region's base address.
func (r *Region) Base() Addr { return r.base }

// Size returns the bytes reserved so far, alignment gaps included: the
// distance from Base to one past the last reservation.
func (r *Region) Size() int { return int(r.next - r.base) }

// Resident returns the bytes backed so far: the sizes of the reservations
// that have been accessed.
func (r *Region) Resident() int { return r.resident } // read by the host-memory gates of the root and nvmefs tests //dpclint:ok

// lookup returns the span holding [addr, addr+n), backed, and keeps a copy
// for Slice to try first. It panics when no reservation holds the range.
func (r *Region) lookup(addr Addr, n int) *span {
	i := len(r.spans)
	if pg := uint64(addr-r.base) >> pageShift; addr >= r.base && pg < uint64(len(r.pages)) {
		// Reservations that share the page end in address order: step
		// past those that end at or before addr.
		i = int(r.pages[pg])
		for i < len(r.spans) && r.spans[i].end <= addr {
			i++
		}
	}
	if n < 0 || i == len(r.spans) || r.spans[i].start > addr || uint64(addr)+uint64(n) > uint64(r.spans[i].end) {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside the reservations of region %q [%#x,%#x)",
			uint64(addr), n, r.name, uint64(r.base), uint64(r.next)))
	}
	s := &r.spans[i]
	if s.buf == nil {
		s.buf = make([]byte, s.end-s.start)
		r.resident += len(s.buf)
	}
	r.last = *s
	return &r.last
}

// Slice returns the region's backing bytes for [addr, addr+n). Mutating the
// slice mutates the region; this is how zero-copy DMA is modeled.
func (r *Region) Slice(addr Addr, n int) []byte {
	s := &r.last
	if addr < s.start || uint64(addr)+uint64(n) > uint64(s.end) {
		s = r.lookup(addr, n)
	}
	o := int(addr - s.start)
	return s.buf[o : o+n : o+n]
}

// Read copies n bytes at addr into a fresh slice.
func (r *Region) Read(addr Addr, n int) []byte {
	out := make([]byte, n)
	copy(out, r.Slice(addr, n))
	return out
}

// Write copies p into the region at addr.
func (r *Region) Write(addr Addr, p []byte) {
	copy(r.Slice(addr, len(p)), p)
}

// Uint32 reads a little-endian uint32 at addr.
func (r *Region) Uint32(addr Addr) uint32 {
	return binary.LittleEndian.Uint32(r.Slice(addr, 4))
}

// PutUint32 writes a little-endian uint32 at addr.
func (r *Region) PutUint32(addr Addr, v uint32) {
	binary.LittleEndian.PutUint32(r.Slice(addr, 4), v)
}

// Uint64 reads a little-endian uint64 at addr.
func (r *Region) Uint64(addr Addr) uint64 {
	return binary.LittleEndian.Uint64(r.Slice(addr, 8))
}

// PutUint64 writes a little-endian uint64 at addr.
func (r *Region) PutUint64(addr Addr, v uint64) {
	binary.LittleEndian.PutUint64(r.Slice(addr, 8), v)
}

// Uint16 reads a little-endian uint16 at addr.
func (r *Region) Uint16(addr Addr) uint16 {
	return binary.LittleEndian.Uint16(r.Slice(addr, 2))
}

// PutUint16 writes a little-endian uint16 at addr.
func (r *Region) PutUint16(addr Addr, v uint16) {
	binary.LittleEndian.PutUint16(r.Slice(addr, 2), v)
}

// CompareAndSwap32 atomically replaces the uint32 at addr with new if it
// equals old, reporting whether the swap happened. "Atomically" is trivially
// true under the simulation's one-runnable-at-a-time rule; the PCIe layer
// charges the latency of a PCIe atomic for remote callers.
func (r *Region) CompareAndSwap32(addr Addr, old, new uint32) bool {
	if r.Uint32(addr) != old {
		return false
	}
	r.PutUint32(addr, new)
	return true
}

// FetchAdd32 atomically adds delta to the uint32 at addr and returns the
// previous value.
func (r *Region) FetchAdd32(addr Addr, delta uint32) uint32 {
	v := r.Uint32(addr)
	r.PutUint32(addr, v+delta)
	return v
}
