package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulBasics(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{0, 5, 0}, {5, 0, 0}, {1, 7, 7}, {7, 1, 7},
		{2, 2, 4}, {0x80, 2, 0x1d}, // overflow wraps through the polynomial
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	// Exhaustive over pairs: commutativity and identity.
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			x, y := byte(a), byte(b)
			if Mul(x, y) != Mul(y, x) {
				t.Fatalf("Mul not commutative at %d,%d", a, b)
			}
			if Add(x, y) != Add(y, x) {
				t.Fatalf("Add not commutative at %d,%d", a, b)
			}
		}
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("1 is not multiplicative identity for %d", a)
		}
		if Add(byte(a), 0) != byte(a) {
			t.Fatalf("0 is not additive identity for %d", a)
		}
		if Add(byte(a), byte(a)) != 0 {
			t.Fatalf("x+x != 0 for %d", a)
		}
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d (inv=%d)", a, inv)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpGeneratorCycle(t *testing.T) {
	if expTable[0] != 1 {
		t.Fatalf("2^0 = %d", expTable[0])
	}
	if expTable[255] != 1 {
		t.Fatalf("2^255 = %d (generator order must be 255)", expTable[255])
	}
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := expTable[i]
		if seen[v] {
			t.Fatalf("2^%d repeats value %d before full cycle", i, v)
		}
		seen[v] = true
	}
}

// Property: distributivity a*(b+c) == a*b + a*c.
func TestDistributivityProperty(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: associativity of multiplication.
func TestAssociativityProperty(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dst := []byte{10, 20, 30, 40}
	want := make([]byte, 4)
	for i := range want {
		want[i] = Add(dst[i], Mul(9, src[i]))
	}
	MulAddSlice(9, src, dst)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MulAddSlice[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	before := append([]byte(nil), dst...)
	MulAddSlice(0, src, dst)
	for i := range dst {
		if dst[i] != before[i] {
			t.Fatal("MulAddSlice by zero must be a no-op")
		}
	}
}
