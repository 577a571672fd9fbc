// Package gf256 implements arithmetic over GF(2^8) with the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the field used by the
// Reed–Solomon erasure coding in package ec.
package gf256

// poly is the primitive polynomial for the field (0x11d).
const poly = 0x11d

var (
	expTable [512]byte // doubled so Mul can skip a mod
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a + b (XOR in characteristic 2; identical to Sub).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inverse of zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// MulAddSlice computes dst[i] ^= c * src[i] for every i. It is the inner
// loop of Reed–Solomon encoding.
func MulAddSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}
