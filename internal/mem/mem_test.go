package mem

import (
	"bytes"
	"testing"
)

func TestRegionBounds(t *testing.T) {
	r := NewRegion("test", 0x1000, 256)
	if r.Base() != 0x1000 || r.Size() != 256 || r.End() != 0x1100 {
		t.Fatalf("geometry: base=%#x size=%d end=%#x", r.Base(), r.Size(), r.End())
	}
	if !r.Contains(0x1000, 256) {
		t.Fatal("full-region access should be in bounds")
	}
	if r.Contains(0x0fff, 1) || r.Contains(0x1100, 1) || r.Contains(0x10ff, 2) {
		t.Fatal("out-of-bounds access reported as contained")
	}
}

func TestRegionOutOfBoundsPanics(t *testing.T) {
	r := NewRegion("test", 0x1000, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access did not panic")
		}
	}()
	r.Read(0x100f, 2)
}

func TestReadWriteRoundTrip(t *testing.T) {
	r := NewRegion("test", 0, 64)
	data := []byte("hello, dma world")
	r.Write(8, data)
	got := r.Read(8, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip = %q", got)
	}
	// Slice aliases the backing store.
	r.Slice(8, 5)[0] = 'H'
	if r.Read(8, 1)[0] != 'H' {
		t.Fatal("Slice does not alias region")
	}
}

func TestTypedAccessorsLittleEndian(t *testing.T) {
	r := NewRegion("test", 0, 32)
	r.PutUint32(0, 0x11223344)
	if got := r.Read(0, 4); got[0] != 0x44 || got[3] != 0x11 {
		t.Fatalf("uint32 not little-endian: % x", got)
	}
	if r.Uint32(0) != 0x11223344 {
		t.Fatalf("Uint32 = %#x", r.Uint32(0))
	}
	r.PutUint64(8, 0x1122334455667788)
	if r.Uint64(8) != 0x1122334455667788 {
		t.Fatalf("Uint64 = %#x", r.Uint64(8))
	}
	r.PutUint16(20, 0xBEEF)
	if r.Uint16(20) != 0xBEEF {
		t.Fatalf("Uint16 = %#x", r.Uint16(20))
	}
	if got := r.Read(20, 2); got[0] != 0xEF || got[1] != 0xBE {
		t.Fatalf("uint16 not little-endian: % x", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	r := NewRegion("test", 0, 8)
	r.PutUint32(0, 5)
	if r.CompareAndSwap32(0, 4, 9) {
		t.Fatal("CAS with wrong old value succeeded")
	}
	if !r.CompareAndSwap32(0, 5, 9) {
		t.Fatal("CAS with right old value failed")
	}
	if r.Uint32(0) != 9 {
		t.Fatalf("value after CAS = %d", r.Uint32(0))
	}
}

func TestFetchAdd(t *testing.T) {
	r := NewRegion("test", 0, 8)
	r.PutUint32(0, 10)
	if prev := r.FetchAdd32(0, 5); prev != 10 {
		t.Fatalf("FetchAdd returned %d, want 10", prev)
	}
	if r.Uint32(0) != 15 {
		t.Fatalf("value = %d, want 15", r.Uint32(0))
	}
}
