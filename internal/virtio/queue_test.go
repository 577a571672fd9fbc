package virtio

import (
	"testing"

	"dpc/internal/mem"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

func newTestQueue(t *testing.T, size int) (*Virtqueue, *mem.Region) {
	t.Helper()
	r := mem.NewRegion("host", 0x1000, 1<<20)
	return NewVirtqueue(r, 0x1000, size), r
}

func TestLayoutFits(t *testing.T) {
	if Layout(8) != 8*16+(4+16)+(4+64) {
		t.Fatalf("Layout(8) = %d", Layout(8))
	}
}

func TestBadQueueSizePanics(t *testing.T) {
	r := mem.NewRegion("host", 0, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two size did not panic")
		}
	}()
	NewVirtqueue(r, 0, 6)
}

func TestAllocChainEncodesDescriptors(t *testing.T) {
	vq, r := newTestQueue(t, 8)
	head, ok := vq.AllocChain([]Buf{
		{Addr: 0x10000, Len: 64},
		{Addr: 0x20000, Len: 4096},
		{Addr: 0x30000, Len: 16, DeviceWritable: true},
	})
	if !ok {
		t.Fatal("AllocChain failed")
	}
	if len(vq.freeDescs) != 5 {
		t.Fatalf("%d free descriptors", len(vq.freeDescs))
	}
	// Decode the head descriptor straight from memory.
	a := vq.descAddr(head)
	if r.Uint64(a) != 0x10000 || r.Uint32(a+8) != 64 {
		t.Fatal("head descriptor fields wrong")
	}
	if r.Uint16(a+12)&DescFlagNext == 0 {
		t.Fatal("head descriptor missing NEXT flag")
	}
	// Walk to the last descriptor and check WRITE flag and no NEXT.
	n2 := r.Uint16(a + 14)
	a2 := vq.descAddr(n2)
	n3 := r.Uint16(a2 + 14)
	a3 := vq.descAddr(n3)
	flags := r.Uint16(a3 + 12)
	if flags&DescFlagWrite == 0 || flags&DescFlagNext != 0 {
		t.Fatalf("tail descriptor flags = %#x", flags)
	}
	vq.FreeChain(head)
	if len(vq.freeDescs) != 8 {
		t.Fatalf("%d free descriptors after free", len(vq.freeDescs))
	}
}

func TestAllocChainExhaustion(t *testing.T) {
	vq, _ := newTestQueue(t, 4)
	bufs := []Buf{{Addr: 0x10000, Len: 1}, {Addr: 0x20000, Len: 1}, {Addr: 0x30000, Len: 1}}
	if _, ok := vq.AllocChain(bufs); !ok {
		t.Fatal("first alloc failed")
	}
	if _, ok := vq.AllocChain(bufs); ok {
		t.Fatal("over-allocation succeeded")
	}
}

func TestAvailUsedRings(t *testing.T) {
	vq, r := newTestQueue(t, 8)
	head, _ := vq.AllocChain([]Buf{{Addr: 0x10000, Len: 64}})
	vq.PushAvail(head)
	if r.Uint16(vq.AvailBase+2) != 1 {
		t.Fatalf("avail idx = %d", r.Uint16(vq.AvailBase+2))
	}
	if _, _, ok := vq.PopUsed(); ok {
		t.Fatal("PopUsed with nothing published")
	}
	// Device publishes a used element (bypassing the PCIe layer here).
	e := sim.NewEngine(1)
	link := pcie.NewLink(e, pcie.DefaultConfig())
	e.Go("dev", func(p *sim.Proc) {
		got := vq.DevReadAvailIdx(p, link)
		if got != 1 {
			t.Errorf("DevReadAvailIdx = %d", got)
		}
		h := vq.DevReadAvailEntry(p, link)
		if h != head {
			t.Errorf("DevReadAvailEntry = %d, want %d", h, head)
		}
		d := vq.DevReadDesc(p, link, h)
		if d.Addr != 0x10000 || d.Len != 64 {
			t.Errorf("DevReadDesc = %+v", d)
		}
		vq.DevWriteUsedElem(p, link, h, 16)
		vq.DevWriteUsedIdx(p, link)
	})
	e.Run()
	id, n, ok := vq.PopUsed()
	if !ok || id != uint32(head) || n != 16 {
		t.Fatalf("PopUsed = %d,%d,%v", id, n, ok)
	}
	if _, _, ok := vq.PopUsed(); ok {
		t.Fatal("PopUsed twice")
	}
}

func TestCoalesce(t *testing.T) {
	descs := []Desc{
		{Addr: 0x1000, Len: 4096},
		{Addr: 0x2000, Len: 4096}, // contiguous with previous
		{Addr: 0x9000, Len: 100},  // gap
	}
	runs := coalesce(descs)
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0].Addr != 0x1000 || runs[0].Len != 8192 {
		t.Fatalf("run0 = %+v", runs[0])
	}
	if runs[1].Addr != 0x9000 || runs[1].Len != 100 {
		t.Fatalf("run1 = %+v", runs[1])
	}
	if len(coalesce(nil)) != 0 {
		t.Fatal("coalesce(nil) not empty")
	}
}
