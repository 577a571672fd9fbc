package nvme

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestOpcodeBitLayout(t *testing.T) {
	// Paper §3.2: lowest two bits '11b' (bidirectional), bits 6:2 '01000b'
	// (function), bit 7 '1b' (vendor-customized) => 0xA3.
	if OpcodeBidir&0b11 != 0b11 {
		t.Errorf("bidirectional bits = %b", OpcodeBidir&0b11)
	}
	if OpcodeBidir>>2&0b11111 != 0b01000 {
		t.Errorf("function bits = %05b, want 01000", OpcodeBidir>>2&0b11111)
	}
	if OpcodeBidir>>7&1 != 1 {
		t.Errorf("vendor bit not set")
	}
	if OpcodeBidir != 0xA3 {
		t.Errorf("opcode = %#x, want 0xA3", OpcodeBidir)
	}
}

func TestSQEMarshalFieldPositions(t *testing.T) {
	s := SQE{
		Opcode:    OpcodeBidir,
		Dispatch:  DispatchDFS,
		PSDTWrite: PSDTPRP,
		PSDTRead:  PSDTSGL,
		CID:       0xBEEF,
		FileOp:    FileOpWrite,
		PRPWrite:  [2]uint64{0x1122334455667788, 0},
		PRPRead:   [2]uint64{0xAABBCCDDEEFF0011, 0},
		WriteLen:  8192,
		ReadLen:   64,
		DW12:      7,
		WHLen:     48,
		RHLen:     16,
	}
	var buf [SQESize]byte
	s.Marshal(buf[:])

	// DW0 byte 0 is the opcode.
	if buf[0] != 0xA3 {
		t.Errorf("byte0 = %#x", buf[0])
	}
	// bit 10 (dispatch) lives in byte 1 bit 2.
	if buf[1]>>2&1 != 1 {
		t.Errorf("dispatch bit not set: byte1=%08b", buf[1])
	}
	// bit 15 (PSDT read = SGL) is byte 1 bit 7.
	if buf[1]>>7&1 != 1 {
		t.Errorf("PSDT read bit not set: byte1=%08b", buf[1])
	}
	// bit 14 (PSDT write = PRP) is byte 1 bit 6, must be clear.
	if buf[1]>>6&1 != 0 {
		t.Errorf("PSDT write bit set: byte1=%08b", buf[1])
	}
	// CID in DW0 bits 31:16.
	if buf[2] != 0xEF || buf[3] != 0xBE {
		t.Errorf("CID bytes = %#x %#x", buf[2], buf[3])
	}
	// PRP Write occupies DW2-5 (bytes 8..23).
	if buf[8] != 0x88 || buf[15] != 0x11 {
		t.Errorf("PRP write bytes = %#x..%#x", buf[8], buf[15])
	}
	// Write_len in DW10 (bytes 40..43) = 8192 = 0x2000.
	if buf[40] != 0x00 || buf[41] != 0x20 {
		t.Errorf("Write_len bytes = %#x %#x", buf[40], buf[41])
	}
	// WH_len/RH_len packed into DW13 (bytes 52..55).
	if buf[52] != 48 || buf[54] != 16 {
		t.Errorf("DW13 bytes = %v %v", buf[52], buf[54])
	}
}

func TestSQERoundTripProperty(t *testing.T) {
	f := func(dispatch, psdtW, psdtR bool, cid uint16, fileOp uint32,
		prpW, prpR uint64, wlen, rlen, dw12 uint32, wh, rh uint16) bool {
		s := SQE{
			Opcode:   OpcodeBidir,
			CID:      cid,
			FileOp:   fileOp,
			PRPWrite: [2]uint64{prpW, 0},
			PRPRead:  [2]uint64{prpR, 0},
			WriteLen: wlen,
			ReadLen:  rlen,
			DW12:     dw12,
			WHLen:    wh,
			RHLen:    rh,
		}
		if dispatch {
			s.Dispatch = DispatchDFS
		}
		if psdtW {
			s.PSDTWrite = PSDTSGL
		}
		if psdtR {
			s.PSDTRead = PSDTSGL
		}
		var buf [SQESize]byte
		s.Marshal(buf[:])
		got, err := UnmarshalSQE(buf[:])
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// unmarshalCQE decodes a 16-byte completion entry: the reference decoder
// Marshal's round trip is checked against.
func unmarshalCQE(buf []byte) CQE {
	le := binary.LittleEndian
	dw2 := le.Uint32(buf[8:])
	dw3 := le.Uint32(buf[12:])
	return CQE{
		Result: le.Uint32(buf[0:]),
		Token:  le.Uint32(buf[4:]),
		SQHead: uint16(dw2),
		SQID:   uint16(dw2 >> 16),
		CID:    uint16(dw3),
		Phase:  dw3>>16&1 == 1,
		Status: uint16(dw3 >> 17),
	}
}

func TestCQERoundTripProperty(t *testing.T) {
	f := func(result uint32, sqHead, sqID, cid uint16, phase bool, status uint16) bool {
		c := CQE{
			Result: result, SQHead: sqHead, SQID: sqID,
			CID: cid, Phase: phase, Status: status & 0x7fff,
		}
		var buf [CQESize]byte
		c.Marshal(buf[:])
		return unmarshalCQE(buf[:]) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	good := SQE{Opcode: OpcodeBidir, WriteLen: 100, WHLen: 48, PRPWrite: [2]uint64{0x1000, 0}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid SQE rejected: %v", err)
	}
	bad := []SQE{
		{Opcode: 0x01}, // wrong opcode
		{Opcode: OpcodeBidir, WriteLen: 10, WHLen: 20},                            // header > payload
		{Opcode: OpcodeBidir, WriteLen: 10},                                       // null write PRP
		{Opcode: OpcodeBidir, ReadLen: 10},                                        // null read PRP
		{Opcode: OpcodeBidir, ReadLen: 4, RHLen: 8, PRPRead: [2]uint64{0x100, 0}}, // rh > rlen
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad SQE %d accepted", i)
		}
	}
}

func TestRingMath(t *testing.T) {
	r := Ring{Base: 0x1000, Entries: 4, EntrySize: SQESize}
	if r.EntryAddr(0) != 0x1000 || r.EntryAddr(3) != 0x1000+3*64 {
		t.Fatal("EntryAddr wrong")
	}
	if r.Next(3) != 0 || r.Next(0) != 1 {
		t.Fatal("Next wrap wrong")
	}
}

func TestRingIndexPanics(t *testing.T) {
	r := Ring{Base: 0, Entries: 4, EntrySize: 64}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ring index did not panic")
		}
	}()
	r.EntryAddr(4)
}

func TestQueuePairFull(t *testing.T) {
	qp := NewQueuePair(1, 0x1000, 0x2000, 4)
	if qp.SQFull() {
		t.Fatal("fresh queue reports full")
	}
	// Fill to depth-1 (one slot sacrificed).
	for i := 0; i < 3; i++ {
		qp.SQTail = qp.SQ.Next(qp.SQTail)
	}
	if !qp.SQFull() {
		t.Fatal("queue with depth-1 entries not full")
	}
	qp.SQHead = qp.SQ.Next(qp.SQHead) // device consumed one
	if qp.SQFull() {
		t.Fatal("queue still full after consume")
	}
}

func TestStatusString(t *testing.T) {
	if StatusString(StatusOK) != "OK" || StatusString(StatusNotFound) != "NOT_FOUND" {
		t.Fatal("status names wrong")
	}
	if StatusString(999) == "" {
		t.Fatal("unknown status should still render")
	}
}
