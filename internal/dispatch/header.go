// Package dispatch implements the DPU-side IO_Dispatch module: it decodes
// the file-semantic request headers carried in nvme-fs commands and routes
// each request to KVFS (standalone service) or to the offloaded DFS client,
// per the dispatch bit in SQE DW0[10]. It also integrates the hybrid cache
// control plane: read misses fill the host cache and feed the prefetcher,
// and host eviction requests trigger DPU-side reclaim.
package dispatch

import (
	"encoding/binary"
	"fmt"
)

// Request flags (ReqHeader.Flags).
const (
	// FlagFillCache asks the DPU to install the read page into the host
	// cache and return its entry index instead of shipping the bytes back.
	FlagFillCache uint32 = 1 << 0
	// FlagWriteback, on a Flush, demands the synchronous write-back path
	// even when a WAL could satisfy durability by journaling: the host's
	// internal pre-direct-I/O syncs need the pages actually in the backend
	// (a direct read must see them there), not merely durable.
	FlagWriteback uint32 = 1 << 2
	// FlagInvalidate, on a Write, journals a WAL generation bump for the
	// inode before the backend write lands. Direct writes set it (on their
	// first chunk): the client has already written back every dirty page, so
	// the backend is current, and without the bump a crash could replay
	// older journaled page images over what this write is about to put
	// there — regressing content the completed direct write promised
	// durable. Buffered write-through fallbacks must NOT set it: they run
	// with journaled-but-dirty pages still in the cache, whose WAL records
	// are those pages' only durability.
	FlagInvalidate uint32 = 1 << 3
)

// ReqHeaderSize is the encoded size of a request header; it must fit the
// 64-byte header area at the head of the write buffer.
const ReqHeaderSize = 28

// ReqHeader is the file-semantic request header (WH) of an nvme-fs command.
type ReqHeader struct {
	Ino     uint64
	Off     uint64
	Len     uint32
	Flags   uint32
	PathLen uint16
	Aux     uint16 // op-specific (e.g. second path length for rename)
}

// Marshal encodes the header into a fresh buffer.
func (h *ReqHeader) Marshal() []byte {
	b := make([]byte, ReqHeaderSize)
	h.Put(b)
	return b
}

// Put encodes the header into dst[:ReqHeaderSize] and returns that slice.
func (h *ReqHeader) Put(dst []byte) []byte {
	b := dst[:ReqHeaderSize]
	le := binary.LittleEndian
	le.PutUint64(b[0:], h.Ino)
	le.PutUint64(b[8:], h.Off)
	le.PutUint32(b[16:], h.Len)
	le.PutUint32(b[20:], h.Flags)
	le.PutUint16(b[24:], h.PathLen)
	le.PutUint16(b[26:], h.Aux)
	return b
}

// DecodeReqHeader decodes a request header.
func DecodeReqHeader(b []byte) (ReqHeader, error) {
	if len(b) < ReqHeaderSize {
		return ReqHeader{}, fmt.Errorf("dispatch: header %d bytes", len(b))
	}
	le := binary.LittleEndian
	return ReqHeader{
		Ino:     le.Uint64(b[0:]),
		Off:     le.Uint64(b[8:]),
		Len:     le.Uint32(b[16:]),
		Flags:   le.Uint32(b[20:]),
		PathLen: le.Uint16(b[24:]),
		Aux:     le.Uint16(b[26:]),
	}, nil
}

// EncodeDirEntries serializes directory entries for a Readdir response.
func EncodeDirEntries(names []string, inos []uint64) []byte {
	var out []byte
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(names)))
	out = append(out, n4[:]...)
	for i, name := range names {
		var rec [10]byte
		binary.LittleEndian.PutUint64(rec[0:], inos[i])
		binary.LittleEndian.PutUint16(rec[8:], uint16(len(name)))
		out = append(out, rec[:]...)
		out = append(out, name...)
	}
	return out
}

// DecodeDirEntries parses a Readdir response payload.
func DecodeDirEntries(b []byte) (names []string, inos []uint64, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("dispatch: dirents %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < n; i++ {
		if len(b) < 10 {
			return nil, nil, fmt.Errorf("dispatch: truncated dirent %d", i)
		}
		ino := binary.LittleEndian.Uint64(b)
		nl := int(binary.LittleEndian.Uint16(b[8:]))
		b = b[10:]
		if len(b) < nl {
			return nil, nil, fmt.Errorf("dispatch: truncated name %d", i)
		}
		names = append(names, string(b[:nl]))
		inos = append(inos, ino)
		b = b[nl:]
	}
	return names, inos, nil
}
