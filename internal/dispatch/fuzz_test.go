package dispatch

import (
	"bytes"
	"slices"
	"testing"
)

// Any bytes decode without panicking. Bytes that decode re-encode to their
// first ReqHeaderSize bytes, and decode∘encode∘decode is decode.
func FuzzDecodeReqHeader(f *testing.F) {
	for _, h := range []ReqHeader{
		{},
		{Ino: 7, Off: 8192, Len: 8192, Flags: FlagFillCache},
		{Ino: 3, Flags: FlagInvalidate | FlagWriteback, PathLen: 5, Aux: 9},
		{Ino: ^uint64(0), Off: ^uint64(0), Len: ^uint32(0), Flags: ^uint32(0), PathLen: ^uint16(0), Aux: ^uint16(0)},
	} {
		f.Add(h.Marshal())
	}
	f.Add(make([]byte, 10)) // short: TestShortHeaderRejected's
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeReqHeader(b)
		if err != nil {
			if len(b) >= ReqHeaderSize {
				t.Fatalf("%d-byte header refused: %v", len(b), err)
			}
			return
		}
		enc := h.Marshal()
		if !bytes.Equal(enc, b[:ReqHeaderSize]) {
			t.Fatalf("re-encoded %x, decoded from %x", enc, b[:ReqHeaderSize])
		}
		if again, err := DecodeReqHeader(enc); err != nil || again != h {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", h, again, err)
		}
	})
}

// Any bytes decode without panicking, into as many inodes as names, and
// decode∘encode∘decode is decode: every decoded name fits the encoding's
// 16-bit length.
func FuzzDecodeDirEntries(f *testing.F) {
	f.Add(EncodeDirEntries([]string{"a", "file with spaces", "日本語", ""}, []uint64{1, 2, 1 << 60, 0}))
	f.Add(EncodeDirEntries(nil, nil))
	hello := EncodeDirEntries([]string{"hello"}, []uint64{5})
	f.Add(hello)
	f.Add(hello[:9]) // truncated record: TestDecodeDirEntriesTruncated's
	f.Fuzz(func(t *testing.T, b []byte) {
		names, inos, err := DecodeDirEntries(b)
		if err != nil {
			return
		}
		if len(names) != len(inos) {
			t.Fatalf("%d names, %d inodes", len(names), len(inos))
		}
		n2, i2, err := DecodeDirEntries(EncodeDirEntries(names, inos))
		if err != nil || !slices.Equal(n2, names) || !slices.Equal(i2, inos) {
			t.Fatalf("decode(encode(%q, %v)) = %q, %v, %v", names, inos, n2, i2, err)
		}
	})
}
