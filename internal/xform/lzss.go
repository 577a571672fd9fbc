package xform

import "encoding/binary"

// LZSS is a from-scratch LZSS compressor (4 KB sliding window, 3..18-byte
// matches, 8-item flag bytes) — the classic shape of inline block
// compression. File data that compresses well shrinks the KV values and
// the network traffic, exactly the LustreFS-style client-side win the
// paper cites; incompressible blocks are stored raw with a 5-byte header.
type LZSS struct{}

const (
	lzWindow   = 4096
	lzMinMatch = 3
	lzMaxMatch = 18
)

// Header: magic byte ('L' compressed / 'R' raw) + 4-byte original length.
const lzHeader = 5

// Name implements Transform.
func (LZSS) Name() string { return "lzss" }

// CyclesPerByte implements Transform (software LZ is ~8 cycles/byte).
func (LZSS) CyclesPerByte() int64 { return 8 }

// Encode compresses page; if compression does not help, the raw bytes are
// stored with a 'R' header instead.
func (LZSS) Encode(page []byte) []byte {
	comp := lzCompress(page)
	if len(comp)+lzHeader >= len(page)+lzHeader && len(comp) >= len(page) {
		out := make([]byte, lzHeader+len(page))
		out[0] = 'R'
		binary.LittleEndian.PutUint32(out[1:], uint32(len(page)))
		copy(out[lzHeader:], page)
		return out
	}
	out := make([]byte, lzHeader+len(comp))
	out[0] = 'L'
	binary.LittleEndian.PutUint32(out[1:], uint32(len(page)))
	copy(out[lzHeader:], comp)
	return out
}

// Decode implements Transform.
func (LZSS) Decode(stored []byte) ([]byte, error) {
	if len(stored) < lzHeader {
		return nil, ErrCorrupt
	}
	origLen := int(binary.LittleEndian.Uint32(stored[1:]))
	body := stored[lzHeader:]
	switch stored[0] {
	case 'R':
		if len(body) != origLen {
			return nil, ErrCorrupt
		}
		return append([]byte(nil), body...), nil
	case 'L':
		out, ok := lzDecompress(body, origLen)
		if !ok {
			return nil, ErrCorrupt
		}
		return out, nil
	default:
		return nil, ErrCorrupt
	}
}

// lzCompress emits groups of 8 items prefixed by a flag byte: bit set =
// literal byte, bit clear = 2-byte (offset, length) back-reference.
func lzCompress(src []byte) []byte {
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
				// A later candidate wins only if strictly longer, and none
				// is longer than lzMaxMatch: stop probing once one reaches it.
				for probes := 0; cand >= 0 && probes < 16 && matchLen < lzMaxMatch; probes++ {
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

func matchLength(src []byte, a, b int) int {
	n := 0
	for b+n < len(src) && n < lzMaxMatch && src[a+n] == src[b+n] {
		n++
	}
	return n
}

func lzDecompress(src []byte, origLen int) ([]byte, bool) {
	// No body byte expands to more than half a longest match (a 2-byte
	// back-reference), so a larger origLen is a corrupt header: refuse it
	// before sizing the output by it.
	if origLen > len(src)*(lzMaxMatch/2) {
		return nil, false
	}
	out := make([]byte, 0, origLen)
	i := 0
	for i < len(src) && len(out) < origLen {
		flags := src[i]
		i++
		for bit := 0; bit < 8 && len(out) < origLen; bit++ {
			if flags&(1<<bit) != 0 {
				if i >= len(src) {
					return nil, false
				}
				out = append(out, src[i])
				i++
			} else {
				if i+1 >= len(src) {
					return nil, false
				}
				token := uint16(src[i]) | uint16(src[i+1])<<8
				i += 2
				off := int(token>>4) + 1
				length := int(token&0xf) + lzMinMatch
				start := len(out) - off
				if start < 0 {
					return nil, false
				}
				for k := 0; k < length; k++ {
					out = append(out, out[start+k])
				}
			}
		}
	}
	if len(out) != origLen {
		return nil, false
	}
	return out, true
}
