// Package kvfs implements KVFS, the paper's KV-based standalone file system
// (§3.4). It runs on the DPU and converts POSIX file operations into
// operations on the disaggregated KV store:
//
//	inode KV     : 'd' + p_ino + name  -> ino            (dentries)
//	attribute KV : 'a' + ino           -> 256-byte attr
//	small-file KV: 's' + ino           -> whole file data (<= 8 KB)
//	big-file KV  : 'b' + ino + blk     -> 8 KB block      (in-place updates)
//
// Inode numbers are 8-byte big-endian so that one file's keys — and one
// directory's dentries — share the KV cluster's routing prefix and land on
// a single shard, making directory listing a single prefix scan. The root
// directory has inode number 0. Per the paper, file names are limited to
// 1024 bytes, and files growing past 8 KB migrate from the small-file
// representation to the big-file representation.
package kvfs

import (
	"encoding/binary"
	"fmt"
)

// Geometry constants from the paper.
const (
	MaxNameLen   = 1024
	SmallFileMax = 8192 // small files are stored in a single KV
	BlockSize    = 8192 // big-file in-place update granularity
	AttrSize     = 256
	RootIno      = 0
)

// Mode values.
const (
	ModeFile uint32 = 1
	ModeDir  uint32 = 2
)

// Attr is the 256-byte attribute structure (privilege, size, ownership,
// times...).
type Attr struct {
	Ino    uint64
	Mode   uint32
	Perm   uint32
	Size   uint64
	Nlink  uint32
	UID    uint32
	GID    uint32
	Ctime  uint64
	Mtime  uint64
	Blocks uint64
}

// Marshal encodes the attribute into its fixed 256-byte form.
func (a *Attr) Marshal() []byte {
	buf := make([]byte, AttrSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], a.Ino)
	le.PutUint32(buf[8:], a.Mode)
	le.PutUint32(buf[12:], a.Perm)
	le.PutUint64(buf[16:], a.Size)
	le.PutUint32(buf[24:], a.Nlink)
	le.PutUint32(buf[28:], a.UID)
	le.PutUint32(buf[32:], a.GID)
	le.PutUint64(buf[36:], a.Ctime)
	le.PutUint64(buf[44:], a.Mtime)
	le.PutUint64(buf[52:], a.Blocks)
	return buf
}

// UnmarshalAttr decodes a 256-byte attribute value.
func UnmarshalAttr(buf []byte) (Attr, error) {
	if len(buf) != AttrSize {
		return Attr{}, fmt.Errorf("kvfs: attr value %d bytes, want %d", len(buf), AttrSize)
	}
	le := binary.LittleEndian
	return Attr{
		Ino:    le.Uint64(buf[0:]),
		Mode:   le.Uint32(buf[8:]),
		Perm:   le.Uint32(buf[12:]),
		Size:   le.Uint64(buf[16:]),
		Nlink:  le.Uint32(buf[24:]),
		UID:    le.Uint32(buf[28:]),
		GID:    le.Uint32(buf[32:]),
		Ctime:  le.Uint64(buf[36:]),
		Mtime:  le.Uint64(buf[44:]),
		Blocks: le.Uint64(buf[52:]),
	}, nil
}

// ---- key construction ----

func be64(v uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return string(b[:])
}

// DentryKey builds the inode KV key 'd'+p_ino+name.
func DentryKey(pIno uint64, name string) string { return "d" + be64(pIno) + name }

// DentryPrefix builds the scan prefix for a directory.
func DentryPrefix(pIno uint64) string { return "d" + be64(pIno) }

// AttrKey builds the attribute KV key.
func AttrKey(ino uint64) string { return "a" + be64(ino) }

// SmallKey builds the small-file KV key.
func SmallKey(ino uint64) string { return "s" + be64(ino) }

// BigKey builds the big-file block KV key. Unlike dentry keys (whose shared
// routing prefix keeps a directory's entries on one shard for scans), block
// keys mix the block number into the routing prefix so a big file's blocks
// spread across every KV shard — this is what lets KVFS bandwidth scale
// with the disaggregated store. The plain (ino, blk) follow for uniqueness;
// nothing prefix-scans big-file keys. The block paths build the key in a
// stack buffer with appendBigKey.
func BigKey(ino uint64, blk uint64) string {
	var b [bigKeyLen]byte
	return string(appendBigKey(b[:0], ino, blk))
}

// bigKeyLen is a block key's length: the type byte and three words.
const bigKeyLen = 25

// appendBigKey appends BigKey(ino, blk)'s bytes to dst.
func appendBigKey(dst []byte, ino, blk uint64) []byte {
	mix := (ino*0x9E3779B97F4A7C15 + blk) * 0xBF58476D1CE4E5B9
	dst = append(dst, 'b')
	dst = binary.BigEndian.AppendUint64(dst, mix)
	dst = binary.BigEndian.AppendUint64(dst, ino)
	return binary.BigEndian.AppendUint64(dst, blk)
}

// NameOfDentryKey recovers the file name from an inode KV key.
func NameOfDentryKey(key string) string {
	if len(key) < 9 {
		return ""
	}
	return key[9:]
}

// decodeKey splits a KVFS key into its type byte and the inode it names: the
// file's for attribute ('a'), small-file ('s') and block ('b') keys, with the
// block number for the last, and the parent directory's for a dentry ('d').
// kind is 0 for a key of no known shape.
func decodeKey(key string) (kind byte, ino, blk uint64) {
	be := func(off int) uint64 { return binary.BigEndian.Uint64([]byte(key[off : off+8])) }
	switch {
	case len(key) == 9 && (key[0] == 'a' || key[0] == 's'):
		return key[0], be(1), 0
	case len(key) == 25 && key[0] == 'b':
		return 'b', be(9), be(17)
	case len(key) > 9 && key[0] == 'd':
		return 'd', be(1), 0
	}
	return 0, 0, 0
}
