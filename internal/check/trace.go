package check

import (
	"math/rand"
)

// The path universe is fixed up front: a handful of directories and file
// slots under the root and under each directory. Keeping the universe small
// forces collisions — creates on existing paths, writes to unlinked files,
// renames onto occupied targets — which is where differential bugs live.
// Directory and file names are disjoint (d*/f*) so namespace ops on
// directories are never generated against file-only semantics and vice
// versa.
func pathUniverse(caps Caps) (dirs, files []string) {
	if caps.Mkdir {
		dirs = []string{"/d0", "/d1", "/d2"}
	}
	files = []string{"/f0", "/f1", "/f2", "/f3", "/f4", "/f5"}
	for _, d := range dirs {
		files = append(files, d+"/f0", d+"/f1", d+"/f2")
	}
	return dirs, files
}

// GenTrace produces a deterministic randomized trace of n operations that
// stack with capabilities caps can execute. The same (seed, n, caps) always
// yields the same trace. Roughly one op in ten is intentionally invalid
// (create of an existing path, I/O on a missing file, rename onto an
// occupied target) to exercise error paths; the oracle predicts those error
// classes too.
func GenTrace(seed int64, n int, caps Caps) []Op {
	rng := rand.New(rand.NewSource(seed))
	dirs, files := pathUniverse(caps)
	// Shadow state so the generator can steer toward valid (or deliberately
	// invalid) operations without consulting the real oracle.
	o := NewOracle()

	maxFile := caps.MaxFile
	if maxFile == 0 {
		maxFile = 96 * 1024
	}

	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	liveFile := func() (string, bool) {
		live := o.LiveFiles()
		if len(live) == 0 {
			return "", false
		}
		return live[rng.Intn(len(live))], true
	}

	// target picks a live file or, for a deliberately invalid op (or when
	// none is live), any file slot.
	target := func(invalid bool) string {
		path, ok := liveFile()
		if !ok || invalid {
			path = pick(files)
		}
		return path
	}

	// alignDown rounds v to the stack's alignment (0 or 1 = byte-granular).
	alignDown := func(v uint64) uint64 {
		if caps.Align > 1 {
			v -= v % uint64(caps.Align)
		}
		return v
	}

	var trace []Op
	for idx := 0; len(trace) < n; idx++ {
		op := Op{Idx: idx}
		invalid := rng.Intn(10) == 0

		switch w := rng.Intn(100); {
		case w < 12: // create
			op.Kind = OpCreate
			op.Path = pick(files)
			if !invalid {
				// Prefer a path that does not exist yet.
				for try := 0; try < 4 && o.exists(op.Path); try++ {
					op.Path = pick(files)
				}
			}

		case w < 15 && caps.Mkdir: // mkdir
			op.Kind = OpMkdir
			op.Path = pick(dirs)

		case w < 45: // write
			op.Kind = OpWrite
			op.Path = target(invalid)
			size, _ := o.SizeOf(op.Path)
			op.Off, op.Len = genExtent(rng, caps, size, maxFile)
			op.Direct = pickMode(rng, caps)
			if op.Len == 0 {
				continue
			}

		case w < 70: // read
			op.Kind = OpRead
			op.Path = target(invalid)
			size, _ := o.SizeOf(op.Path)
			// Reads may deliberately overshoot EOF: clamping is part of the
			// contract under test.
			limit := size + uint64(caps.Align) + 8192
			op.Off = alignDown(uint64(rng.Int63n(int64(limit + 1))))
			op.Len = int(alignDown(uint64(1 + rng.Intn(maxFile/2))))
			op.Direct = pickMode(rng, caps)
			if op.Len == 0 {
				continue
			}

		case w < 78: // stat
			op.Kind = OpStat
			if rng.Intn(4) == 0 && len(dirs) > 0 {
				op.Path = pick(dirs)
			} else {
				op.Path = target(invalid)
			}

		case w < 82 && caps.Mkdir: // readdir
			op.Kind = OpReaddir
			if rng.Intn(2) == 0 {
				op.Path = "" // root
			} else {
				op.Path = pick(dirs)
			}

		case w < 87 && caps.Fsync: // fsync
			op.Kind = OpFsync
			path, ok := liveFile()
			if !ok {
				continue
			}
			op.Path = path

		case w < 91 && caps.Truncate: // truncate
			op.Kind = OpTruncate
			op.Path = target(invalid)

		case w < 96 && caps.Unlink: // unlink
			op.Kind = OpUnlink
			op.Path = target(invalid)

		case w < 100 && caps.Rename: // rename
			op.Kind = OpRename
			op.Path = target(invalid)
			op.Path2 = pick(files)
			if op.Path2 == op.Path {
				continue
			}

		default:
			continue
		}

		// Maintain shadow state and keep the op.
		o.Apply(op)
		trace = append(trace, op)
	}
	return trace
}

// genExtent picks a write extent. Sizes are biased toward the interesting
// boundaries: sub-page tails, the 8 KB small-file limit (small-to-big
// migrations), and multi-page runs. Offsets favor appends and in-place
// overwrites; holes (start past EOF) only when the stack supports them.
func genExtent(rng *rand.Rand, caps Caps, size uint64, maxFile int) (off uint64, n int) {
	switch rng.Intn(3) {
	case 0:
		n = 1 + rng.Intn(256)
	case 1:
		n = 1 + rng.Intn(8192)
	default:
		n = 1 + rng.Intn(40960)
	}

	switch rng.Intn(4) {
	case 0:
		off = 0
	case 1, 2: // append (the common pattern, and what migrations need)
		off = size
	default:
		if size > 0 {
			off = uint64(rng.Int63n(int64(size)))
		}
		if caps.Holes && rng.Intn(4) == 0 {
			off = size + uint64(rng.Intn(3*8192))
		}
	}

	if caps.Align > 1 {
		a := uint64(caps.Align)
		off -= off % a
		n += int(a) - 1
		n -= n % int(a)
	}
	if int(off)+n > maxFile {
		n = maxFile - int(off)
		if caps.Align > 1 {
			n -= n % caps.Align
		}
		if n <= 0 {
			return 0, 0
		}
	}
	return off, n
}

// pickMode chooses buffered vs direct I/O within the stack's capabilities.
func pickMode(rng *rand.Rand, caps Caps) (direct bool) {
	switch {
	case caps.Buffered && caps.Direct:
		return rng.Intn(4) == 0 // mostly buffered: the cache is the hot seat
	case caps.Direct:
		return true
	default:
		return false
	}
}
