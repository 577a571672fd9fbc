// Package virtio implements a virtqueue (descriptor table, available ring,
// used ring) in simulated host memory, plus the DPFS-style virtio-fs
// transport built on it. The device side walks the rings with one DMA per
// field access, reproducing the paper's Figure 2(b): an 8 KB write costs 11
// DMA operations.
package virtio

import (
	"fmt"

	"dpc/internal/mem"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// Descriptor flags.
const (
	DescFlagNext  = 1 // buffer continues via the next field
	DescFlagWrite = 2 // buffer is device-writable
)

const (
	descEntrySize = 16 // addr u64, len u32, flags u16, next u16
	usedElemSize  = 8  // id u32, len u32
)

// Desc is a decoded descriptor-table entry.
type Desc struct {
	Addr  mem.Addr
	Len   uint32
	Flags uint16
	Next  uint16
}

// Virtqueue is one virtio queue laid out in host memory.
type Virtqueue struct {
	Mem  *mem.Region
	Size int

	DescBase  mem.Addr
	AvailBase mem.Addr
	UsedBase  mem.Addr

	freeDescs []uint16
	// lastAvail is the device's shadow of how far it has consumed the
	// available ring (the paper's last_avail_idx).
	lastAvail uint16
	// availIdx is the host's shadow of the avail index it has published.
	availIdx uint16
	// usedSeen is the host's shadow of the used entries it has consumed.
	usedSeen uint16
	// usedIdxDev is the device's shadow of the used index it has published.
	usedIdxDev uint16
}

// Layout computes the memory footprint of a virtqueue of the given size.
func Layout(size int) int {
	return size*descEntrySize + (4 + 2*size) + (4 + usedElemSize*size)
}

// NewVirtqueue lays out a queue of `size` descriptors at base in r.
func NewVirtqueue(r *mem.Region, base mem.Addr, size int) *Virtqueue {
	if size < 4 || size&(size-1) != 0 {
		panic(fmt.Sprintf("virtio: queue size %d must be a power of two >= 4", size))
	}
	vq := &Virtqueue{
		Mem:       r,
		Size:      size,
		DescBase:  base,
		AvailBase: base + mem.Addr(size*descEntrySize),
		UsedBase:  base + mem.Addr(size*descEntrySize) + mem.Addr(4+2*size),
	}
	if !r.Contains(base, Layout(size)) {
		panic("virtio: queue does not fit in region")
	}
	for i := size - 1; i >= 0; i-- {
		vq.freeDescs = append(vq.freeDescs, uint16(i))
	}
	return vq
}

func (vq *Virtqueue) descAddr(i uint16) mem.Addr {
	if int(i) >= vq.Size {
		panic(fmt.Sprintf("virtio: desc index %d of %d", i, vq.Size))
	}
	return vq.DescBase + mem.Addr(int(i)*descEntrySize)
}

// ---- host (driver) side: local memory operations ----

// Buf describes one buffer of a request chain.
type Buf struct {
	Addr           mem.Addr
	Len            uint32
	DeviceWritable bool
}

// AllocChain writes a descriptor chain for bufs and returns the head index.
// It fails (ok=false) when not enough descriptors are free.
func (vq *Virtqueue) AllocChain(bufs []Buf) (head uint16, ok bool) {
	if len(bufs) == 0 || len(bufs) > len(vq.freeDescs) {
		return 0, false
	}
	idxs := make([]uint16, len(bufs))
	for i := range bufs {
		idxs[i] = vq.freeDescs[len(vq.freeDescs)-1-i]
	}
	vq.freeDescs = vq.freeDescs[:len(vq.freeDescs)-len(bufs)]
	for i, b := range bufs {
		flags := uint16(0)
		next := uint16(0)
		if i < len(bufs)-1 {
			flags |= DescFlagNext
			next = idxs[i+1]
		}
		if b.DeviceWritable {
			flags |= DescFlagWrite
		}
		a := vq.descAddr(idxs[i])
		vq.Mem.PutUint64(a, uint64(b.Addr))
		vq.Mem.PutUint32(a+8, b.Len)
		vq.Mem.PutUint16(a+12, flags)
		vq.Mem.PutUint16(a+14, next)
	}
	return idxs[0], true
}

// FreeChain returns a chain's descriptors to the free list.
func (vq *Virtqueue) FreeChain(head uint16) {
	i := head
	for {
		a := vq.descAddr(i)
		flags := vq.Mem.Uint16(a + 12)
		next := vq.Mem.Uint16(a + 14)
		vq.freeDescs = append(vq.freeDescs, i)
		if flags&DescFlagNext == 0 {
			return
		}
		i = next
	}
}

// PushAvail publishes a chain head on the available ring.
func (vq *Virtqueue) PushAvail(head uint16) {
	slot := int(vq.availIdx) % vq.Size
	vq.Mem.PutUint16(vq.AvailBase+4+mem.Addr(2*slot), head)
	vq.availIdx++
	vq.Mem.PutUint16(vq.AvailBase+2, vq.availIdx)
}

// PopUsed consumes one used-ring element if the device has published one.
func (vq *Virtqueue) PopUsed() (id uint32, length uint32, ok bool) {
	devIdx := vq.Mem.Uint16(vq.UsedBase + 2)
	if devIdx == vq.usedSeen {
		return 0, 0, false
	}
	slot := int(vq.usedSeen) % vq.Size
	a := vq.UsedBase + 4 + mem.Addr(usedElemSize*slot)
	id = vq.Mem.Uint32(a)
	length = vq.Mem.Uint32(a + 4)
	vq.usedSeen++
	return id, length, true
}

// ---- device (DPFS-HAL) side: every access is one PCIe DMA ----

// DevReadAvailIdx DMA-reads the available ring index (the paper's step ①).
func (vq *Virtqueue) DevReadAvailIdx(p *sim.Proc, link *pcie.Link) uint16 {
	b := link.DMARead(p, vq.Mem, vq.AvailBase+2, 2, "avail-idx")
	return uint16(b[0]) | uint16(b[1])<<8
}

// DevReadAvailEntry DMA-reads one available-ring slot (step ②).
func (vq *Virtqueue) DevReadAvailEntry(p *sim.Proc, link *pcie.Link) uint16 {
	slot := int(vq.lastAvail) % vq.Size
	b := link.DMARead(p, vq.Mem, vq.AvailBase+4+mem.Addr(2*slot), 2, "avail-ring")
	vq.lastAvail++
	return uint16(b[0]) | uint16(b[1])<<8
}

// DevPendingAvail reports how many published chains the device has not yet
// consumed, given an avail index it already DMA-read.
func (vq *Virtqueue) DevPendingAvail(availIdx uint16) int {
	return int(availIdx - vq.lastAvail)
}

// DevReadDesc DMA-reads one descriptor-table entry (steps ③…).
func (vq *Virtqueue) DevReadDesc(p *sim.Proc, link *pcie.Link, i uint16) Desc {
	b := link.DMARead(p, vq.Mem, vq.descAddr(i), descEntrySize, "desc")
	return Desc{
		Addr:  mem.Addr(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56),
		Len:   uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24,
		Flags: uint16(b[12]) | uint16(b[13])<<8,
		Next:  uint16(b[14]) | uint16(b[15])<<8,
	}
}

// DevWriteUsedElem DMA-writes one used-ring element (step ⑩).
func (vq *Virtqueue) DevWriteUsedElem(p *sim.Proc, link *pcie.Link, head uint16, length uint32) {
	slot := int(vq.usedIdxDev) % vq.Size
	var b [usedElemSize]byte
	b[0] = byte(head)
	b[1] = byte(head >> 8)
	b[4] = byte(length)
	b[5] = byte(length >> 8)
	b[6] = byte(length >> 16)
	b[7] = byte(length >> 24)
	link.DMAWrite(p, vq.Mem, vq.UsedBase+4+mem.Addr(usedElemSize*slot), b[:], "used-elem")
}

// DevWriteUsedIdx DMA-writes the incremented used index (step ⑪).
func (vq *Virtqueue) DevWriteUsedIdx(p *sim.Proc, link *pcie.Link) {
	vq.usedIdxDev++
	var b [2]byte
	b[0] = byte(vq.usedIdxDev)
	b[1] = byte(vq.usedIdxDev >> 8)
	link.DMAWrite(p, vq.Mem, vq.UsedBase+2, b[:], "used-idx")
}
