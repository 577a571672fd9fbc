package xform

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func transforms() []Transform {
	return []Transform{DIF{}, LZSS{}, Chain{LZSS{}, DIF{}}, Chain{DIF{}}, Chain{}}
}

func TestRoundTripProperty(t *testing.T) {
	for _, tr := range transforms() {
		tr := tr
		f := func(data []byte) bool {
			dec, err := tr.Decode(tr.Encode(data))
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}

func TestRoundTripSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tr := range transforms() {
		for _, n := range []int{0, 1, 2, 3, 4095, 4096, 4097, 8192, 65536} {
			data := make([]byte, n)
			rng.Read(data)
			dec, err := tr.Decode(tr.Encode(data))
			if err != nil || !bytes.Equal(dec, data) {
				t.Fatalf("%s n=%d: err=%v equal=%v", tr.Name(), n, err, bytes.Equal(dec, data))
			}
		}
	}
}

func TestLZSSCompressesRepetitiveData(t *testing.T) {
	data := bytes.Repeat([]byte("container-image-layer "), 400) // ~8.8 KB
	enc := (LZSS{}).Encode(data)
	if len(enc) >= len(data)/3 {
		t.Fatalf("LZSS only reached %d bytes from %d", len(enc), len(data))
	}
	dec, err := (LZSS{}).Decode(enc)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatal("round trip after compression failed")
	}
}

func TestLZSSRawFallbackForRandomData(t *testing.T) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(2)).Read(data)
	enc := (LZSS{}).Encode(data)
	if enc[0] != 'R' {
		t.Fatalf("random data stored with marker %q, want raw", enc[0])
	}
	if len(enc) != len(data)+lzHeader {
		t.Fatalf("raw fallback size %d", len(enc))
	}
}

func TestDIFDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 8192)
	rng.Read(data)
	enc := (DIF{}).Encode(data)
	// Flip one bit anywhere in the protected data: decode must fail.
	for _, pos := range []int{0, 100, 4095, 4096, 8191} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x40
		if _, err := (DIF{}).Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
	// Untouched data still decodes.
	if _, err := (DIF{}).Decode(enc); err != nil {
		t.Fatalf("clean decode failed: %v", err)
	}
}

func TestDIFDetectsTagCorruption(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 4096)
	enc := (DIF{}).Encode(data)
	bad := append([]byte(nil), enc...)
	bad[len(bad)-6] ^= 1 // inside a tag
	if _, err := (DIF{}).Decode(bad); err == nil {
		t.Fatal("tag corruption undetected")
	}
}

func TestDecodeGarbage(t *testing.T) {
	garbage := [][]byte{nil, {}, {1}, {0, 1, 2, 3}, bytes.Repeat([]byte{0xFF}, 64)}
	for _, tr := range []Transform{DIF{}, LZSS{}} {
		for _, g := range garbage {
			if _, err := tr.Decode(g); err == nil && len(g) > 0 {
				// A tiny chance garbage is self-consistent; require failure
				// for these specific inputs.
				t.Errorf("%s accepted garbage % x", tr.Name(), g)
			}
		}
	}
}

// A compressed block whose header claims more than its body can expand to
// is corrupt, and decoding it does not allocate what the header claims.
func TestLZSSDecodeRejectsOversizedHeader(t *testing.T) {
	block := []byte{'L', 0, 0, 0, 4, 0x01, 'a', 0x00, 0x00} // claims 64 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LZSS{}.Decode(block)
	runtime.ReadMemStats(&after)
	if err != ErrCorrupt {
		t.Fatalf("Decode of a 9-byte block claiming 64 MiB: %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Decode allocated %d bytes for a 9-byte block", d)
	}
}

func TestChainOrderAndName(t *testing.T) {
	c := Chain{LZSS{}, DIF{}}
	if c.Name() != "lzss+dif" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.CyclesPerByte() != (LZSS{}).CyclesPerByte()+(DIF{}).CyclesPerByte() {
		t.Fatal("chain cost must sum")
	}
	data := bytes.Repeat([]byte("abc"), 1000)
	enc := c.Encode(data)
	// Outer layer is DIF: corrupting it must fail before LZSS runs.
	bad := append([]byte(nil), enc...)
	bad[10] ^= 1
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("chained corruption undetected")
	}
}

// TestLZSSMatchesReference pins lzCompress's output to the reference's:
// stopping the probe loop at a full-length match must not change one
// output byte, whatever the input.
func TestLZSSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// Words drawn at random from a small vocabulary: a position's hash
	// chain holds candidates of many lengths, the most recent rarely the
	// longest.
	var words []byte
	vocab := strings.Fields("the a cache page flush dirty write read block inode the of and to")
	for len(words) < 32<<10 {
		words = append(words, vocab[rng.Intn(len(vocab))]...)
		words = append(words, ' ')
	}
	inputs := map[string][]byte{
		"words":         words,
		"periodic text": bytes.Repeat([]byte("application log line: GET /api/v1/object served in 420us status=200\n"), 4000),
		"random":        random(64 << 10),
		"zero page":     make([]byte, 8192),
		"empty":         {},
		"one byte":      {7},
		"two bytes":     {7, 7},
		"mixed":         append(append(random(3000), make([]byte, 5000)...), bytes.Repeat([]byte("abcab"), 900)...),
	}
	// A repeat at distance d just inside, at and just past the 4 KiB window.
	for _, d := range []int{lzWindow - 1, lzWindow, lzWindow + 1} {
		b := random(d + 64)
		copy(b[d:], b[:64])
		inputs[fmt.Sprintf("repeat at %d", d)] = b
	}
	for name, src := range inputs {
		want := refLZCompress(src)
		if got := lzCompress(src); !bytes.Equal(got, want) {
			t.Errorf("%s: lzCompress differs from the reference (%d vs %d bytes)", name, len(got), len(want))
		}
		enc := (LZSS{}).Encode(src)
		if enc[0] == 'L' && !bytes.Equal(enc[lzHeader:], want) {
			t.Errorf("%s: Encode body differs from the reference", name)
		}
		if dec, err := (LZSS{}).Decode(enc); err != nil || !bytes.Equal(dec, src) {
			t.Errorf("%s: round trip failed (err %v)", name, err)
		}
	}
}

// refLZCompress is lzCompress before its probe loop stopped at a
// full-length match, kept verbatim as TestLZSSMatchesReference's reference.
func refLZCompress(src []byte) []byte {
	var out []byte
	// head[h] is the most recent position with 3-byte hash h; a tiny
	// chained hash table keeps matching O(n) with bounded probes.
	var head [1 << 13]int32
	var prev []int32
	for i := range head {
		head[i] = -1
	}
	prev = make([]int32, len(src))

	hash := func(i int) uint32 {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return (v * 2654435761) >> 19
	}

	i := 0
	for i < len(src) {
		flagPos := len(out)
		out = append(out, 0)
		var flags byte
		for bit := 0; bit < 8 && i < len(src); bit++ {
			matchLen, matchOff := 0, 0
			if i+lzMinMatch <= len(src) {
				h := hash(i)
				cand := head[h]
				for probes := 0; cand >= 0 && probes < 16; probes++ {
					if int(cand) < i && i-int(cand) <= lzWindow {
						l := matchLength(src, int(cand), i)
						if l > matchLen {
							matchLen, matchOff = l, i-int(cand)
						}
					}
					cand = prev[cand]
				}
			}
			if matchLen >= lzMinMatch {
				if matchLen > lzMaxMatch {
					matchLen = lzMaxMatch
				}
				// 12-bit offset, 4-bit (length - 3).
				token := uint16(matchOff-1)<<4 | uint16(matchLen-lzMinMatch)
				out = append(out, byte(token), byte(token>>8))
				end := i + matchLen
				for ; i < end; i++ {
					if i+lzMinMatch <= len(src) {
						h := hash(i)
						prev[i] = head[h]
						head[h] = int32(i)
					}
				}
			} else {
				flags |= 1 << bit
				out = append(out, src[i])
				if i+lzMinMatch <= len(src) {
					h := hash(i)
					prev[i] = head[h]
					head[h] = int32(i)
				}
				i++
			}
		}
		out[flagPos] = flags
	}
	return out
}

func BenchmarkLZSSEncode8K(b *testing.B) {
	data := bytes.Repeat([]byte("container-image-layer "), 400)[:8192]
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		(LZSS{}).Encode(data)
	}
}

func BenchmarkDIFEncode8K(b *testing.B) {
	data := make([]byte, 8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		(DIF{}).Encode(data)
	}
}
