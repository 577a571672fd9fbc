// Package check is a differential torture harness for the repository's file
// system stacks. A deterministic generator produces randomized operation
// traces (create, write, read, truncate, unlink, rename, fsync — buffered
// and direct, with holes and small-to-big migrations where a stack supports
// them); an in-memory oracle defines the expected outcome of every
// operation; and an executor replays each trace against a real stack —
// KVFS direct, KVFS through the hybrid cache, the local Ext4-style FS, and
// the DFS clients — diffing error classes, data, sizes and listings after
// every operation, with a full-tree verify at intervals and a flush + fsck
// at the end. Failures shrink to a minimal reproducer by delta-debugging
// the trace.
//
// The harness exists because of a real bug: the hybrid cache's flush path
// used to write back whole pages through a backend interface that could not
// see the file's true EOF, silently inflating a 10 000-byte file to the
// next page boundary. The package's tests reinstate that behavior under a
// live cache so the harness demonstrates it still catches it.
package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dpc"
	"dpc/internal/dfs"
	"dpc/internal/kvfs"
	"dpc/internal/localfs"
)

// OpKind enumerates trace operations.
type OpKind int

const (
	OpCreate OpKind = iota
	OpMkdir
	OpWrite
	OpRead
	OpTruncate
	OpUnlink
	OpRename
	OpFsync
	OpStat
	OpReaddir
)

func (k OpKind) String() string {
	return [...]string{"create", "mkdir", "write", "read", "truncate", "unlink", "rename", "fsync", "stat", "readdir"}[k]
}

// Op is one trace operation. Idx is assigned at generation time and is
// stable under shrinking: write payloads derive from it, so removing other
// operations from a trace never changes the bytes this one writes.
type Op struct {
	Idx    int
	Kind   OpKind
	Path   string
	Path2  string // rename destination
	Off    uint64
	Len    int
	Direct bool
}

func (o Op) String() string {
	switch o.Kind {
	case OpWrite, OpRead:
		mode := "buffered"
		if o.Direct {
			mode = "direct"
		}
		return fmt.Sprintf("#%d %s %s off=%d len=%d %s", o.Idx, o.Kind, o.Path, o.Off, o.Len, mode)
	case OpRename:
		return fmt.Sprintf("#%d rename %s -> %s", o.Idx, o.Path, o.Path2)
	default:
		return fmt.Sprintf("#%d %s %s", o.Idx, o.Kind, o.Path)
	}
}

// Pattern fills a write payload deterministically from the op index and the
// file offset. Keyed this way, the same Op always writes the same bytes —
// independent of every other op in the trace — which is what makes shrunk
// traces replay faithfully.
func Pattern(idx int, off uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(137*idx + 29*int(off+uint64(i))%251 + 61)
	}
	return out
}

// Caps masks the trace generator to what one stack supports. The generator
// only emits operations a stack can execute; the oracle still models the
// full semantics.
type Caps struct {
	Buffered bool // buffered (page-cached) reads and writes
	Direct   bool // direct reads and writes
	Holes    bool // writes may begin past EOF (sparse files)
	Mkdir    bool // mkdir + readdir
	Unlink   bool
	Rename   bool
	Truncate bool
	Fsync    bool
	// Align, when nonzero, forces write/read offsets and lengths to
	// multiples of it (the DFS stacks write erasure-coded full blocks).
	Align int
	// MaxFile bounds file sizes so traces stay cheap to verify.
	MaxFile int
}

// ErrClass is a stack-independent error classification.
type ErrClass int

const (
	ErrNone ErrClass = iota
	ErrNotFound
	ErrExists
	ErrIsDir
	ErrNotDir
	ErrNotEmpty
	ErrOther
)

func (c ErrClass) String() string {
	return [...]string{"ok", "not-found", "exists", "is-dir", "not-dir", "not-empty", "other"}[c]
}

// Classify maps any stack's error onto an ErrClass.
func Classify(err error) ErrClass {
	is := func(targets ...error) bool {
		for _, t := range targets {
			if errors.Is(err, t) {
				return true
			}
		}
		return false
	}
	switch {
	case err == nil:
		return ErrNone
	case is(dpc.ErrNotFound, kvfs.ErrNotFound, localfs.ErrNotFound, dfs.ErrNotFound):
		return ErrNotFound
	case is(dpc.ErrExists, kvfs.ErrExists, localfs.ErrExists, dfs.ErrExists):
		return ErrExists
	case is(dpc.ErrIsDir, kvfs.ErrIsDir, localfs.ErrIsDir):
		return ErrIsDir
	case is(dpc.ErrNotDir, kvfs.ErrNotDir, localfs.ErrNotDir):
		return ErrNotDir
	case is(dpc.ErrNotEmpty, kvfs.ErrNotEmpty, localfs.ErrNotEmpty):
		return ErrNotEmpty
	}
	return ErrOther
}

// Result is the observable outcome of one operation, produced identically
// by the oracle and by stack adapters.
type Result struct {
	Err   ErrClass
	Data  []byte   // read payload
	Size  uint64   // stat size
	IsDir bool     // stat mode
	Names []string // readdir listing, sorted
}

// Diff compares a stack result against the oracle's, returning "" on match.
func Diff(op Op, got, want Result) string {
	if got.Err != want.Err {
		return fmt.Sprintf("%s: error class %s, want %s", op, got.Err, want.Err)
	}
	if want.Err != ErrNone {
		return ""
	}
	switch op.Kind {
	case OpRead:
		return diffBytes(op, got.Data, want.Data)
	case OpStat:
		if got.IsDir != want.IsDir {
			return fmt.Sprintf("%s: isdir=%v, want %v", op, got.IsDir, want.IsDir)
		}
		if !got.IsDir && got.Size != want.Size {
			return fmt.Sprintf("%s: size=%d, want %d", op, got.Size, want.Size)
		}
	case OpReaddir:
		g, w := strings.Join(got.Names, ","), strings.Join(want.Names, ",")
		if g != w {
			return fmt.Sprintf("%s: listing [%s], want [%s]", op, g, w)
		}
	}
	return ""
}

func diffBytes(op Op, got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d bytes, want %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: byte %d = %#x, want %#x", op, i, got[i], want[i])
		}
	}
	return ""
}

func sortedCopy(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
