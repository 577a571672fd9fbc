// Package nvme implements the NVMe queue-pair wire format used by nvme-fs:
// 64-byte submission queue entries (SQE), 16-byte completion queue entries
// (CQE) and ring-index arithmetic. The layouts are real little-endian
// encodings in simulated memory; the PCIe transfer of these bytes is done
// (and charged) by package nvmefs.
//
// The bidirectional vendor command follows Section 3.2 of the paper exactly:
//
//	DW0  bits  7:0  opcode 0xA3 — bits1:0='11b' (bidirectional data
//	                transfer), bits6:2='01000b' (function), bit7='1b'
//	                (vendor-customized)
//	     bit    10  request type: 0 = standalone (KVFS), 1 = distributed
//	                (DFS client) — consumed by the IO_Dispatch module
//	     bits 15:14 PSDT: transfer structure for the write / read buffer,
//	                '0' = PRP (default), '1' = SGL
//	     bits 31:16 CID, the command identifier
//	DW1             file-operation code (open/read/write/...; sub-opcode)
//	DW2–5           PRP Write: physical address of the host write buffer
//	DW6–9           PRP Read: physical address of the host read buffer
//	DW10            Write_len — bytes the DPU must read from the host
//	DW11            Read_len — bytes the DPU will write back to the host
//	DW12            command-specific (file offset page, flags...)
//	DW13 bits 15:0  WH_len — bytes of write header at the head of the
//	                write buffer
//	     bits 31:16 RH_len — bytes of read (response) header at the head
//	                of the read buffer
package nvme

import (
	"encoding/binary"
	"fmt"

	"dpc/internal/mem"
)

// Sizes of queue entries, per the NVMe spec.
const (
	SQESize = 64
	CQESize = 16
)

// OpcodeBidir is the vendor-reserved bidirectional opcode ('0xA3').
const OpcodeBidir = 0xA3

// Dispatch classes (DW0 bit 10).
const (
	DispatchKVFS = 0 // standalone file request -> KVFS
	DispatchDFS  = 1 // distributed file request -> DFS client
)

// PSDT transfer-structure selectors (DW0 bits 14/15).
//
// nvme-fs repurposes the non-PRP encoding for the inline small-I/O path
// (NVMe inline/CMB style): PSDTInline on the write side means the write
// buffer (header + payload) was staged by PIO into the per-queue
// device-memory inline window at this command's SQ slot, so the TGT consumes
// it without PRP-fetch or data-in DMAs. PSDTInline on the read side means
// the response is returned through the enlarged-CQE window in host memory —
// one contiguous [CQE | header | data] DMA replaces the separate data-out
// DMA and CQE ring write. Either side may carry a null PRP when its inline
// bit is set.
const (
	PSDTPRP    = 0
	PSDTSGL    = 1
	PSDTInline = PSDTSGL // alias: the '1' encoding carries inline data in nvme-fs
)

// File operation sub-opcodes carried in DW1.
const (
	FileOpNop uint32 = iota
	FileOpLookup
	FileOpCreate
	FileOpOpen
	FileOpRead
	FileOpWrite
	FileOpFlush
	FileOpGetattr
	FileOpSetattr
	FileOpMkdir
	FileOpReaddir
	FileOpUnlink
	FileOpRmdir
	FileOpRename
	FileOpTruncate
	FileOpCacheEvict // hybrid-cache control: host asks DPU to reclaim pages
	FileOpBarrier    // flush everything (fsync-like)
)

// SQE is a decoded submission queue entry for the bidirectional command.
type SQE struct {
	Opcode    uint8
	Dispatch  uint8 // DispatchKVFS or DispatchDFS
	PSDTWrite uint8 // PSDTPRP or PSDTSGL
	PSDTRead  uint8
	CID       uint16
	FileOp    uint32
	PRPWrite  [2]uint64
	PRPRead   [2]uint64
	WriteLen  uint32
	ReadLen   uint32
	DW12      uint32
	WHLen     uint16
	RHLen     uint16
	// Token is a driver-assigned token carried in the reserved tail of the
	// SQE (DW14) that names one attempt of one logical command: retries keep
	// its operation bits, so the TGT can deduplicate re-executions, and
	// change its attempt bits, so the host can reject a straggler's
	// completion even when its retry reuses the CID. 0 means "no token".
	Token uint32
}

// Marshal encodes the SQE into a 64-byte buffer.
func (s *SQE) Marshal(buf []byte) {
	if len(buf) < SQESize {
		panic(fmt.Sprintf("nvme: SQE buffer %d bytes", len(buf)))
	}
	for i := range buf[:SQESize] {
		buf[i] = 0
	}
	dw0 := uint32(s.Opcode)
	dw0 |= uint32(s.Dispatch&1) << 10
	dw0 |= uint32(s.PSDTWrite&1) << 14
	dw0 |= uint32(s.PSDTRead&1) << 15
	dw0 |= uint32(s.CID) << 16
	le := binary.LittleEndian
	le.PutUint32(buf[0:], dw0)
	le.PutUint32(buf[4:], s.FileOp)
	le.PutUint64(buf[8:], s.PRPWrite[0])
	le.PutUint64(buf[16:], s.PRPWrite[1])
	le.PutUint64(buf[24:], s.PRPRead[0])
	le.PutUint64(buf[32:], s.PRPRead[1])
	le.PutUint32(buf[40:], s.WriteLen)
	le.PutUint32(buf[44:], s.ReadLen)
	le.PutUint32(buf[48:], s.DW12)
	le.PutUint32(buf[52:], uint32(s.WHLen)|uint32(s.RHLen)<<16)
	le.PutUint32(buf[56:], s.Token)
}

// UnmarshalSQE decodes a 64-byte submission entry.
func UnmarshalSQE(buf []byte) (SQE, error) {
	if len(buf) < SQESize {
		return SQE{}, fmt.Errorf("nvme: SQE buffer %d bytes", len(buf))
	}
	le := binary.LittleEndian
	dw0 := le.Uint32(buf[0:])
	s := SQE{
		Opcode:    uint8(dw0 & 0xff),
		Dispatch:  uint8(dw0 >> 10 & 1),
		PSDTWrite: uint8(dw0 >> 14 & 1),
		PSDTRead:  uint8(dw0 >> 15 & 1),
		CID:       uint16(dw0 >> 16),
		FileOp:    le.Uint32(buf[4:]),
		WriteLen:  le.Uint32(buf[40:]),
		ReadLen:   le.Uint32(buf[44:]),
		DW12:      le.Uint32(buf[48:]),
	}
	s.PRPWrite[0] = le.Uint64(buf[8:])
	s.PRPWrite[1] = le.Uint64(buf[16:])
	s.PRPRead[0] = le.Uint64(buf[24:])
	s.PRPRead[1] = le.Uint64(buf[32:])
	dw13 := le.Uint32(buf[52:])
	s.WHLen = uint16(dw13)
	s.RHLen = uint16(dw13 >> 16)
	s.Token = le.Uint32(buf[56:])
	return s, nil
}

// Validate checks the invariants of a bidirectional command.
func (s *SQE) Validate() error {
	if s.Opcode != OpcodeBidir {
		return fmt.Errorf("nvme: opcode %#x, want %#x", s.Opcode, OpcodeBidir)
	}
	if uint32(s.WHLen) > s.WriteLen {
		return fmt.Errorf("nvme: write header %d exceeds write len %d", s.WHLen, s.WriteLen)
	}
	if uint32(s.RHLen) > s.ReadLen {
		return fmt.Errorf("nvme: read header %d exceeds read len %d", s.RHLen, s.ReadLen)
	}
	if s.WriteLen > 0 && s.PRPWrite[0] == 0 && s.PSDTWrite != PSDTInline {
		return fmt.Errorf("nvme: write len %d with null PRP", s.WriteLen)
	}
	if s.ReadLen > 0 && s.PRPRead[0] == 0 && s.PSDTRead != PSDTInline {
		return fmt.Errorf("nvme: read len %d with null PRP", s.ReadLen)
	}
	return nil
}

// Completion status codes.
const (
	StatusOK uint16 = iota
	StatusInvalid
	StatusNotFound
	StatusExists
	StatusNoSpace
	StatusNotEmpty
	StatusIsDir
	StatusNotDir
	StatusIOError
	StatusTransient // transient device/backend failure; safe to retry
	StatusTimeout   // host-side deadline expired; command aborted
	StatusCorrupt   // command image failed validation in flight
	StatusReset     // command failed by a controller reset
	StatusOverload  // shed by DPU admission control; retry after backoff
)

// StatusString renders a status code.
func StatusString(s uint16) string {
	names := []string{"OK", "INVALID", "NOT_FOUND", "EXISTS", "NO_SPACE", "NOT_EMPTY", "IS_DIR", "NOT_DIR", "IO_ERROR",
		"TRANSIENT", "TIMEOUT", "CORRUPT", "RESET", "OVERLOAD"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("STATUS_%d", s)
}

// Retryable reports whether a status marks a transient failure the driver
// may retry without changing the command's semantics (the retry token
// protocol guarantees at-most-once execution of non-idempotent ops).
func Retryable(s uint16) bool {
	switch s {
	case StatusTransient, StatusTimeout, StatusCorrupt, StatusReset, StatusOverload:
		return true
	}
	return false
}

// CQE is a decoded completion queue entry.
type CQE struct {
	Result uint32 // command-specific (e.g. bytes transferred)
	Token  uint32 // echo of SQE.Token, in the otherwise-reserved DW1
	SQHead uint16
	SQID   uint16
	CID    uint16
	Phase  bool
	Status uint16
}

// Marshal encodes the CQE into a 16-byte buffer.
func (c *CQE) Marshal(buf []byte) {
	if len(buf) < CQESize {
		panic(fmt.Sprintf("nvme: CQE buffer %d bytes", len(buf)))
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], c.Result)
	le.PutUint32(buf[4:], c.Token)
	le.PutUint32(buf[8:], uint32(c.SQHead)|uint32(c.SQID)<<16)
	dw3 := uint32(c.CID)
	if c.Phase {
		dw3 |= 1 << 16
	}
	dw3 |= uint32(c.Status&0x7fff) << 17
	le.PutUint32(buf[12:], dw3)
}

// Ring describes a queue ring in simulated memory.
type Ring struct {
	Base      mem.Addr
	Entries   int
	EntrySize int
}

// EntryAddr returns the address of slot i.
func (r Ring) EntryAddr(i int) mem.Addr {
	if i < 0 || i >= r.Entries {
		panic(fmt.Sprintf("nvme: ring index %d of %d", i, r.Entries))
	}
	return r.Base + mem.Addr(i*r.EntrySize)
}

// Next returns the slot after i, wrapping.
func (r Ring) Next(i int) int { return (i + 1) % r.Entries }

// QueuePair is one SQ/CQ pair. Head/tail indices are kept by the respective
// drivers; the phase bit implements standard NVMe CQ ownership.
type QueuePair struct {
	ID int
	SQ Ring
	CQ Ring

	// Host-side (NVME-INI) state.
	SQTail  int
	CQHead  int
	CQPhase bool

	// Device-side (NVME-TGT) state.
	SQHead      int
	CQTail      int
	CQPhaseDev  bool
	DoorbellVal uint32
}

// NewQueuePair lays out a queue pair: the rings live in host memory starting
// at sqBase/cqBase.
func NewQueuePair(id int, sqBase, cqBase mem.Addr, depth int) *QueuePair {
	if depth < 2 {
		panic(fmt.Sprintf("nvme: queue depth %d", depth))
	}
	return &QueuePair{
		ID:         id,
		SQ:         Ring{Base: sqBase, Entries: depth, EntrySize: SQESize},
		CQ:         Ring{Base: cqBase, Entries: depth, EntrySize: CQESize},
		CQPhase:    true,
		CQPhaseDev: true,
	}
}

// SQFull reports whether the submission ring has no free slot (one slot is
// sacrificed to distinguish full from empty).
func (qp *QueuePair) SQFull() bool {
	return qp.SQ.Next(qp.SQTail) == qp.SQHead
}
