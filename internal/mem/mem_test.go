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
		r.PutUint64(r.Alloc(8, 1), uint64(i)) // the first shares a's page
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
	db := make([]Addr, 32) // one page of 8-byte reservations, as the doorbells
	for i := range db {
		db[i] = r.Alloc(8, 8)
	}
	r.Slice(a, 1)
	r.Slice(b, 1)
	for _, d := range db {
		r.Slice(d, 8)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Slice(a, 8192)
		r.Slice(b, 64)
		r.PutUint32(b, r.Uint32(a)+1)
	}); n != 0 {
		t.Fatalf("Slice of a backed reservation: %v allocs per run", n)
	}
	// Each access below misses the last span and goes to the page index,
	// some stepping past earlier reservations of a shared page.
	if n := testing.AllocsPerRun(100, func() {
		for i, d := range db {
			r.PutUint64(d, r.Uint64(db[len(db)-1-i])+1)
			r.Slice(a, 8)
		}
	}); n != 0 {
		t.Fatalf("Slice through the page index: %v allocs per run", n)
	}
}

func TestUntouchedReservationIsNeverBacked(t *testing.T) {
	r := NewArena("arena", 0x1000, 1<<30)
	a := r.Alloc(1<<20, 4096)
	b := r.Alloc(128<<10, 4096)
	c := r.Alloc(1<<20, 1)
	if got := r.Resident(); got != 0 {
		t.Fatalf("%d bytes backed before any access", got)
	}
	r.PutUint32(b+100, 7)
	if got := r.Resident(); got != 128<<10 {
		t.Fatalf("%d bytes backed after touching one 128 KiB reservation, want exactly it", got)
	}
	if r.Uint32(b+100) != 7 || r.Uint32(a) != 0 || r.Uint32(c+(1<<20)-4) != 0 {
		t.Fatal("reservations do not read back what was written, or zeros")
	}
	if got := r.Resident(); got != 128<<10+2<<20 {
		t.Fatalf("%d bytes backed after touching all three, want their sizes", got)
	}
}

func TestAccessStraddlingAdjacentReservationsPanics(t *testing.T) {
	r := NewArena("arena", 0, 1<<20)
	a := r.Alloc(100, 4096)
	b := r.Alloc(100, 1)
	if b != a+100 {
		t.Fatalf("b=%#x, want it adjacent to a=%#x", uint64(b), uint64(a))
	}
	r.Slice(a, 100)
	r.Slice(b, 100)
	mustPanic(t, `region "arena"`, func() { r.Slice(b-1, 2) })
	mustPanic(t, `region "arena"`, func() { r.Slice(a, 200) })
}

func TestReservationsSharingAPageKeepTheirBytes(t *testing.T) {
	r := NewArena("arena", 0x1000, 1<<20)
	r.Alloc(4000, 4096)
	a := r.Alloc(50, 1)  // 4000..4050: ends in page 0
	b := r.Alloc(100, 1) // 4050..4150: crosses into page 1
	c := r.Alloc(10, 1)  // 4150..4160: inside page 1, after b
	for i, x := range []Addr{a, b, c} {
		r.Write(x, bytes.Repeat([]byte{byte(i + 1)}, 10))
	}
	for i, x := range []Addr{a, b, c} {
		if got := r.Read(x, 10); !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 10)) {
			t.Fatalf("reservation %d reads % x", i, got)
		}
	}
	if got := r.Read(b+90, 10); !bytes.Equal(got, make([]byte, 10)) {
		t.Fatalf("b's tail in page 1 reads % x, want zeros", got)
	}
	if r.Resident() != 50+100+10 {
		t.Fatalf("%d bytes backed, want the three touched reservations'", r.Resident())
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
