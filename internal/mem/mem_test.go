package mem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestRegionBounds(t *testing.T) {
	r := NewRegion("test", 0x1000, 256)
	if r.Base() != 0x1000 || r.Size() != 256 {
		t.Fatalf("geometry: base=%#x size=%d", r.Base(), r.Size())
	}
	if !contains(r, 0x1000, 256) {
		t.Fatal("full-region access should be in bounds")
	}
	if contains(r, 0x0fff, 1) || contains(r, 0x1100, 1) || contains(r, 0x10ff, 2) {
		t.Fatal("out-of-bounds access reported as contained")
	}
}

// contains reports whether [addr, addr+n) lies inside one reservation.
func contains(r *Region, addr Addr, n int) (ok bool) {
	defer func() { ok = recover() == nil }()
	r.Slice(addr, n)
	return
}

// mustPanic fails t unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %q", msg, want)
		}
	}()
	f()
}

func TestArenaReservationReadsZero(t *testing.T) {
	r := NewArena("arena", 0x1000, 1<<20)
	a := r.Alloc(100, 64)
	b := r.Alloc(4096, 4096)
	if a != 0x1000 || b != 0x2000 || r.Size() != 0x2000 {
		t.Fatalf("a=%#x b=%#x size=%d", uint64(a), uint64(b), r.Size())
	}
	if got := r.Read(b, 4096); !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("first touch of a reservation is not zeroed")
	}
}

func TestArenaAccessOutsideReservationsPanics(t *testing.T) {
	r := NewArena("arena", 0x1000, 1<<20)
	a := r.Alloc(100, 64)
	b := r.Alloc(8, 4096)
	for _, c := range []struct {
		name string
		addr Addr
		n    int
	}{
		{"gap start", a + 100, 1},
		{"gap end", b - 1, 1},
		{"straddling the gap", a + 99, 2},
		{"past the last reservation", b + 8, 1},
		{"straddling the end", b + 4, 8},
		{"below the base", 0xfff, 1},
	} {
		mustPanic(t, `region "arena"`, func() { r.Slice(c.addr, c.n) })
	}
}

func TestArenaViewSurvivesLaterReservations(t *testing.T) {
	r := NewArena("arena", 0, 1<<20)
	a := r.Alloc(64, 8)
	view := r.Slice(a, 64)
	for i := 0; i < 100; i++ {
		r.PutUint64(r.Alloc(4096, 4096), uint64(i))
	}
	view[3] = 0x5A
	if r.Slice(a, 64)[3] != 0x5A {
		t.Fatal("a view taken before later reservations no longer aliases the region")
	}
	r.Write(a+8, []byte{0xA5})
	if view[8] != 0xA5 {
		t.Fatal("a write through the region does not reach an earlier view")
	}
}

func TestArenaAllocPastCapacityPanics(t *testing.T) {
	r := NewArena("small-dram", 0, 8192)
	r.Alloc(4096, 1)
	mustPanic(t, `"small-dram"`, func() { r.Alloc(4097, 1) })
	mustPanic(t, `"small-dram"`, func() { r.Alloc(1, 8192) })
}

func TestSliceZeroAllocs(t *testing.T) {
	r := NewArena("arena", 0, 1<<20)
	a, b := r.Alloc(8192, 4096), r.Alloc(64, 64)
	r.Slice(a, 1)
	if n := testing.AllocsPerRun(100, func() {
		r.Slice(a, 8192)
		r.Slice(b, 64)
		r.PutUint32(b, r.Uint32(a)+1)
	}); n != 0 {
		t.Fatalf("Slice on a materialised extent: %v allocs per run", n)
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
