package bufpool

import (
	"testing"
)

func TestGetZeroedAfterReuse(t *testing.T) {
	p := New()
	b := p.Get(4096)
	for i := range b {
		b[i] = 0xAB
	}
	p.Put(b)
	b2 := p.Get(4096)
	if &b[0] != &b2[0] {
		t.Fatalf("expected LIFO reuse of the same backing array")
	}
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("byte %d not zeroed after reuse: %#x", i, v)
		}
	}
}

// GetUncleared recycles like Get but hands the buffer over as its last user
// left it; a cold pool or a nil one still returns fresh zeros.
func TestGetUnclearedKeepsContents(t *testing.T) {
	p := New()
	if b := p.GetUncleared(100); len(b) != 100 || b[0] != 0 || b[99] != 0 {
		t.Fatalf("cold GetUncleared = len %d, want 100 zero bytes", len(b))
	}
	b := p.Get(4096)
	for i := range b {
		b[i] = 0xAB
	}
	p.Put(b)
	b2 := p.GetUncleared(3000)
	if &b[0] != &b2[0] || len(b2) != 3000 || b2[0] != 0xAB || b2[2999] != 0xAB {
		t.Fatalf("GetUncleared did not hand back the recycled bytes as they were")
	}
	var nilPool *Pool
	if b := nilPool.GetUncleared(8); len(b) != 8 {
		t.Fatalf("nil pool GetUncleared len %d", len(b))
	}
}

func TestClassRounding(t *testing.T) {
	p := New()
	b := p.Get(100) // rounds to the 128 class
	if cap(b) != 128 || len(b) != 100 {
		t.Fatalf("got len=%d cap=%d, want len=100 cap=128", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(128)
	if &b2[0] != &b[0] {
		t.Fatalf("128-byte request should reuse the 128 class buffer")
	}
}

func TestOversizeAndZero(t *testing.T) {
	p := New()
	if got := p.Get(0); got != nil {
		t.Fatalf("Get(0) = %v, want nil", got)
	}
	huge := p.Get(1 << 20)
	if len(huge) != 1<<20 {
		t.Fatalf("oversize Get len=%d", len(huge))
	}
	p.Put(huge) // discarded: not a pooled class
	if p.Puts != 0 {
		t.Fatalf("oversize Put should be discarded, Puts=%d", p.Puts)
	}
	if p.Misses != 1 {
		t.Fatalf("Misses=%d, want 1", p.Misses)
	}
}

func TestNilPool(t *testing.T) {
	var p *Pool
	b := p.Get(512)
	if len(b) != 512 {
		t.Fatalf("nil pool Get len=%d", len(b))
	}
	p.Put(b) // must not panic
}

func TestPerClassCap(t *testing.T) {
	p := New()
	bufs := make([][]byte, perClassCap+8)
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if p.Puts != perClassCap {
		t.Fatalf("Puts=%d, want %d (cap enforced)", p.Puts, perClassCap)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	p := New()
	p.Put(make([]byte, 8192))
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get(8192)
		b[0] = 1
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %v per run, want 0", allocs)
	}
}

// Under SetPoison a released buffer is overwritten, so a reference kept past
// Put reads PoisonByte; the next Get still hands out zeros.
func TestPoisonOnPut(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	p := New()
	b := p.Get(100)
	for i := range b {
		b[i] = 7
	}
	retained := b
	p.Put(b)
	for i, v := range retained[:cap(retained)] {
		if v != PoisonByte {
			t.Fatalf("released buffer byte %d = %#x, want poison %#x", i, v, PoisonByte)
		}
	}
	for i, v := range p.Get(128) {
		if v != 0 {
			t.Fatalf("recycled buffer byte %d = %#x, want 0", i, v)
		}
	}
}
