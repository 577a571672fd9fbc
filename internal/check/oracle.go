package check

import (
	"sort"
	"strings"
)

// Oracle is the in-memory reference file system. It models the semantics
// every stack is expected to share: files are flat byte slices, writes
// extend with zero fill, reads clamp to EOF, truncate cuts to zero,
// unlink is files-only, rename refuses an existing target, and readdir
// lists immediate children sorted by name.
type Oracle struct {
	dirs  map[string]bool // "/d0" ...; the root "" is implicit
	files map[string][]byte
}

// NewOracle returns an empty reference file system.
func NewOracle() *Oracle {
	return &Oracle{dirs: map[string]bool{}, files: map[string][]byte{}}
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return ""
	}
	return path[:i]
}

func (o *Oracle) parentExists(path string) bool {
	par := parentOf(path)
	return par == "" || o.dirs[par]
}

func (o *Oracle) exists(path string) bool {
	_, f := o.files[path]
	return f || o.dirs[path]
}

// Apply executes one operation against the reference state and returns the
// expected Result.
func (o *Oracle) Apply(op Op) Result {
	buf, isFile := o.files[op.Path]
	missing := Result{Err: ErrNotFound}
	switch op.Kind {
	case OpCreate, OpMkdir:
		if o.exists(op.Path) {
			return Result{Err: ErrExists}
		}
		if !o.parentExists(op.Path) {
			return missing
		}
		if op.Kind == OpMkdir {
			o.dirs[op.Path] = true
		} else {
			o.files[op.Path] = []byte{}
		}
		return Result{}

	case OpWrite:
		if !isFile {
			return missing
		}
		end := op.Off + uint64(op.Len)
		if uint64(len(buf)) < end {
			buf = append(buf, make([]byte, end-uint64(len(buf)))...)
		}
		copy(buf[op.Off:end], Pattern(op.Idx, op.Off, op.Len))
		o.files[op.Path] = buf
		return Result{}

	case OpRead:
		if !isFile {
			return missing
		}
		if op.Off >= uint64(len(buf)) {
			return Result{Data: nil}
		}
		end := min(op.Off+uint64(op.Len), uint64(len(buf)))
		return Result{Data: append([]byte(nil), buf[op.Off:end]...)}

	case OpTruncate:
		if !isFile {
			return missing
		}
		o.files[op.Path] = []byte{}
		return Result{}

	case OpUnlink:
		if o.dirs[op.Path] {
			return Result{Err: ErrIsDir}
		}
		if !isFile {
			return missing
		}
		delete(o.files, op.Path)
		return Result{}

	case OpRename:
		if !isFile || !o.parentExists(op.Path2) {
			return missing
		}
		if o.exists(op.Path2) {
			return Result{Err: ErrExists}
		}
		o.files[op.Path2] = buf
		delete(o.files, op.Path)
		return Result{}

	case OpFsync:
		if !isFile {
			return missing
		}
		return Result{}

	case OpStat:
		if o.dirs[op.Path] {
			return Result{IsDir: true}
		}
		if isFile {
			return Result{Size: uint64(len(buf))}
		}
		return missing

	case OpReaddir:
		if op.Path != "" && !o.dirs[op.Path] {
			if isFile {
				return Result{Err: ErrNotDir}
			}
			return missing
		}
		return Result{Names: o.list(op.Path)}
	}
	panic("check: unknown op kind")
}

// list returns the sorted immediate children of dir ("" = root).
func (o *Oracle) list(dir string) []string {
	var names []string
	add := func(path string) {
		if parentOf(path) == dir {
			names = append(names, path[strings.LastIndexByte(path, '/')+1:])
		}
	}
	for d := range o.dirs {
		add(d)
	}
	for f := range o.files {
		add(f)
	}
	sort.Strings(names)
	return names
}

// LiveFiles returns every file path, sorted — the full-tree verify walks
// these.
func (o *Oracle) LiveFiles() []string {
	var out []string
	for f := range o.files {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// LiveDirs returns every directory path, sorted, including the root "".
func (o *Oracle) LiveDirs() []string {
	out := []string{""}
	for d := range o.dirs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// SizeOf returns the oracle's size for a file.
func (o *Oracle) SizeOf(path string) (uint64, bool) {
	buf, ok := o.files[path]
	return uint64(len(buf)), ok
}

// ContentOf returns the oracle's bytes for a file.
func (o *Oracle) ContentOf(path string) ([]byte, bool) {
	buf, ok := o.files[path]
	return buf, ok
}
