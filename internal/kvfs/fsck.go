package kvfs

import (
	"encoding/binary"
	"fmt"

	"dpc/internal/kv"
	"dpc/internal/sim"
)

// FsckReport summarizes a KVFS consistency check.
type FsckReport struct {
	Inodes      int
	Directories int
	Files       int
	SmallFiles  int
	BigBlocks   int
	Problems    []string
}

// OK reports whether the check found no inconsistencies.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck cross-checks the KV representation of the file system:
//
//   - every dentry's inode has an attribute KV;
//   - every file's data representation matches its size (small-file KV for
//     sizes <= 8 KB, big-file block KVs covering [0, size) otherwise, and
//     never both);
//   - directory attributes really are directories;
//   - no unreachable ("orphan") attribute KVs exist, and no small-file or
//     big-file KV belongs to an inode that is not reachable (the state a torn
//     or stale unlink leaves, which Scavenge repairs);
//   - no big-file block of a file lies past its EOF (the state a write
//     racing a truncate would leave).
//
// It runs as a sim process because it reads through the KV cluster like any
// other client (fsck on a disaggregated store is an online scrubber).
func (fs *FS) Fsck(p *sim.Proc, cluster *kv.Cluster) *FsckReport {
	r := &FsckReport{}
	seen := map[uint64]bool{}
	sizes := map[uint64]uint64{} // file ino -> attr size

	var walk func(dirIno uint64, path string)
	walk = func(dirIno uint64, path string) {
		if seen[dirIno] {
			r.problemf("directory cycle at %q (ino %d)", path, dirIno)
			return
		}
		seen[dirIno] = true
		r.Inodes++
		r.Directories++
		a, ok := fs.getAttr(p, dirIno)
		if !ok {
			r.problemf("directory %q missing attribute KV (ino %d)", path, dirIno)
			return
		}
		if a.Mode != ModeDir {
			r.problemf("%q (ino %d) referenced as directory but mode=%d", path, dirIno, a.Mode)
			return
		}
		for _, kvp := range fs.cl.Scan(p, DentryPrefix(dirIno), 0) {
			name := NameOfDentryKey(kvp.Key)
			ino := binary.LittleEndian.Uint64(kvp.Val)
			ca, ok := fs.getAttr(p, ino)
			if !ok {
				r.problemf("%q/%s: dentry references missing attr (ino %d)", path, name, ino)
				continue
			}
			if ca.Mode == ModeDir {
				walk(ino, path+"/"+name)
				continue
			}
			if seen[ino] {
				r.problemf("file ino %d linked twice (at %q/%s)", ino, path, name)
				continue
			}
			seen[ino] = true
			sizes[ino] = ca.Size
			r.Inodes++
			r.Files++
			fs.checkFileData(p, r, path+"/"+name, ca)
		}
	}
	walk(RootIno, "")

	// Orphan scan: every attribute KV in the cluster must be reachable, and so
	// must the inode every data KV belongs to, inside its EOF.
	for i := 0; i < cluster.Shards(); i++ {
		for _, kvp := range cluster.StoreOf(i).Scan("", 0) {
			kind, ino, blk := decodeKey(kvp.Key)
			if seen[ino] {
				if size, file := sizes[ino]; file && kind == 'b' && blk*BlockSize >= size {
					r.problemf("big-file block %d of ino %d lies past EOF %d", blk, ino, size)
				}
				continue
			}
			switch kind {
			case 'a':
				r.problemf("orphan attribute KV for ino %d", ino)
			case 's':
				r.problemf("orphan small-file KV for ino %d", ino)
			case 'b':
				r.problemf("orphan big-file block %d of ino %d", blk, ino)
			}
		}
	}
	return r
}

// checkFileData validates a file's data KVs against its declared size.
func (fs *FS) checkFileData(p *sim.Proc, r *FsckReport, path string, a Attr) {
	small, hasSmall := fs.cl.Get(p, SmallKey(a.Ino))
	blocks := 0
	for blk := uint64(0); blk*BlockSize < a.Size || (a.Size == 0 && blk == 0); blk++ {
		if a.Size == 0 {
			break
		}
		if _, ok := fs.cl.Get(p, BigKey(a.Ino, blk)); ok {
			blocks++
		}
	}

	switch {
	case a.Size == 0:
		if hasSmall {
			r.problemf("%s: empty file has a small-file KV", path)
		}
		if blocks > 0 {
			r.problemf("%s: empty file has %d big-file blocks", path, blocks)
		}
	case a.Size <= SmallFileMax:
		if !hasSmall {
			r.problemf("%s: size %d but no small-file KV", path, a.Size)
		} else if uint64(len(small)) != a.Size {
			r.problemf("%s: small KV holds %d bytes, attr says %d", path, len(small), a.Size)
		}
		if blocks > 0 {
			r.problemf("%s: small file also has %d big-file blocks", path, blocks)
		}
		r.SmallFiles++
	default:
		if hasSmall {
			r.problemf("%s: big file still has a small-file KV", path)
		}
		want := int((a.Size + BlockSize - 1) / BlockSize)
		if blocks != want {
			r.problemf("%s: %d big-file blocks, attr size %d implies %d", path, blocks, a.Size, want)
		}
		if a.Blocks != uint64(want) {
			r.problemf("%s: attr.Blocks=%d, size implies %d", path, a.Blocks, want)
		}
		r.BigBlocks += blocks
	}
}
