package nvme

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalSQE feeds arbitrary bytes to the TGT's SQE decoder. It must
// never panic, and a decoded entry must survive re-encoding: decoding what
// Marshal writes for it gives the same entry back. The corpus starts from
// the entries the other tests build, a short buffer and an all-ones image.
func FuzzUnmarshalSQE(f *testing.F) {
	seeds := []SQE{
		{Opcode: OpcodeBidir, Dispatch: DispatchDFS, PSDTWrite: PSDTPRP, PSDTRead: PSDTSGL, CID: 0xBEEF,
			FileOp: FileOpWrite, PRPWrite: [2]uint64{0x1122334455667788, 0}, PRPRead: [2]uint64{0xAABBCCDDEEFF0011, 0},
			WriteLen: 8192, ReadLen: 64, DW12: 7, WHLen: 48, RHLen: 16},
		{Opcode: OpcodeBidir, WriteLen: 100, WHLen: 48, PRPWrite: [2]uint64{0x1000, 0}},
		{Opcode: OpcodeBidir, PSDTWrite: PSDTInline, PSDTRead: PSDTInline, WriteLen: 64 + 256, ReadLen: 320,
			WHLen: 28, RHLen: 1, Token: 0x1234_5671},
		{Opcode: 0x02, WriteLen: 10, WHLen: 48},
	}
	for _, s := range seeds {
		var buf [SQESize]byte
		s.Marshal(buf[:])
		f.Add(buf[:])
	}
	f.Add([]byte{OpcodeBidir, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, SQESize+3))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := UnmarshalSQE(b)
		if err != nil {
			if len(b) >= SQESize {
				t.Fatalf("a %d-byte image failed to decode: %v", len(b), err)
			}
			return
		}
		_ = s.Validate()
		var buf [SQESize]byte
		s.Marshal(buf[:])
		again, err := UnmarshalSQE(buf[:])
		if err != nil || again != s {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", s, again, err)
		}
	})
}
