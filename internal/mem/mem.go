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

// Region is a contiguous block of simulated physical memory starting at Base.
type Region struct {
	name string
	base Addr
	buf  []byte
}

// NewRegion allocates a region of the given size at the given base address.
func NewRegion(name string, base Addr, size int) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("mem: region %q size %d", name, size))
	}
	return &Region{name: name, base: base, buf: make([]byte, size)}
}

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Base returns the region's base address.
func (r *Region) Base() Addr { return r.base }

// Size returns the region's length in bytes.
func (r *Region) Size() int { return len(r.buf) }

// End returns one past the last valid address.
func (r *Region) End() Addr { return r.base + Addr(len(r.buf)) }

// Contains reports whether [addr, addr+n) lies inside the region.
func (r *Region) Contains(addr Addr, n int) bool {
	return addr >= r.base && n >= 0 && uint64(addr)+uint64(n) <= uint64(r.End())
}

func (r *Region) off(addr Addr, n int) int {
	if !r.Contains(addr, n) {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside region %q [%#x,%#x)",
			uint64(addr), n, r.name, uint64(r.base), uint64(r.End())))
	}
	return int(addr - r.base)
}

// Slice returns the region's backing bytes for [addr, addr+n). Mutating the
// slice mutates the region; this is how zero-copy DMA is modeled.
func (r *Region) Slice(addr Addr, n int) []byte {
	o := r.off(addr, n)
	return r.buf[o : o+n : o+n]
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
