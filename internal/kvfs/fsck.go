package kvfs

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"

	"dpc/internal/kv"
)

// image is a KVFS file system as its shard stores hold it: one scan of every
// shard, decoded by key type. Values that do not decode are left out.
type image struct {
	attrs  map[uint64]Attr
	dents  []dentry            // in key order
	smalls map[uint64]int      // ino -> small-file KV length
	blocks map[uint64][]uint64 // ino -> its big-file block numbers, ascending
	owners map[uint64]bool     // every inode an attribute or data KV names
	maxIno uint64              // highest inode an attribute or dentry names
}

type dentry struct {
	key       string
	pIno, ino uint64
}

func scan(cluster *kv.Cluster) *image {
	img := &image{attrs: map[uint64]Attr{}, smalls: map[uint64]int{}, blocks: map[uint64][]uint64{}, owners: map[uint64]bool{}}
	for i := range cluster.Shards() {
		for _, kvp := range cluster.StoreOf(i).Scan("", 0) {
			switch kind, ino, blk := decodeKey(kvp.Key); kind {
			case 'a':
				if a, err := UnmarshalAttr(kvp.Val); err == nil {
					img.attrs[ino], img.owners[ino] = a, true
					img.maxIno = max(img.maxIno, ino)
				}
			case 's':
				img.smalls[ino], img.owners[ino] = len(kvp.Val), true
			case 'b':
				img.blocks[ino], img.owners[ino] = append(img.blocks[ino], blk), true
			case 'd':
				if len(kvp.Val) == 8 {
					d := dentry{key: kvp.Key, pIno: ino, ino: binary.LittleEndian.Uint64(kvp.Val)}
					img.dents = append(img.dents, d)
					img.maxIno = max(img.maxIno, d.ino)
				}
			}
		}
	}
	slices.SortFunc(img.dents, func(a, b dentry) int { return strings.Compare(a.key, b.key) })
	for _, blks := range img.blocks {
		slices.Sort(blks)
	}
	return img
}

func (img *image) hasBlock(ino, blk uint64) bool {
	_, ok := slices.BinarySearch(img.blocks[ino], blk)
	return ok
}

// findKind names one way an image breaks KVFS's consistency rule, and so
// the repair Scavenge makes.
type findKind uint8

const (
	badRoot    findKind = iota // the root is not a directory: mount it again
	lostDentry                 // a dentry to no attribute, or in no reachable directory: delete it
	dupDentry                  // a second link to an inode the walk reached: delete it
	orphanAttr                 // an attribute the walk does not reach: delete it
	orphanData                 // a data KV of no reachable file: delete it
	// The rest are about one reachable file's representation.
	strayBlock  // a small file's block 0, or a block past EOF: delete it
	straySmall  // a small-file KV on an empty or big file: delete it, its body kept in a missing block 0
	smallWrong  // a small file's small-file KV absent or of the wrong length: rewrite it at the size
	blocksShort // a big file missing blocks inside EOF: zero-fill them
	blocksField // a big file whose attr.Blocks disagrees with its size: rewrite it
)

// finding is one breach of the rule: what the repair needs, and what Fsck
// reports.
type finding struct {
	kind findKind
	key  string // the KV the repair deletes
	a    Attr   // the file's attribute, for representation findings
	msg  string
}

type addFunc func(kind findKind, key string, a Attr, format string, args ...any)

// inspect checks the image against KVFS's consistency rule: the root is a
// directory; walking from it, breadth first and each directory's dentries in
// name order, every dentry names an inode with an attribute and reaches an
// inode not reached before; nothing the walk does not reach survives; and
// every reachable file holds exactly the representation its attribute
// implies — nothing for an empty file, a small-file KV of Size bytes for
// Size <= SmallFileMax, otherwise blocks covering [0, Size), none past it,
// and Blocks equal to their count. It returns the findings in repair order —
// the walk's dentries, the unwalked ones by key, then every inode an
// attribute or data KV names, in order — and the path of every inode the
// walk reached.
func (img *image) inspect() ([]finding, map[uint64]string) {
	var finds []finding
	add := func(kind findKind, key string, a Attr, format string, args ...any) {
		finds = append(finds, finding{kind: kind, key: key, a: a, msg: fmt.Sprintf(format, args...)})
	}
	if a, ok := img.attrs[RootIno]; !ok || a.Mode != ModeDir {
		add(badRoot, "", a, "root directory (ino %d) has no directory attribute", RootIno)
	}
	children := map[uint64][]dentry{}
	for _, d := range img.dents {
		children[d.pIno] = append(children[d.pIno], d)
	}
	paths := map[uint64]string{RootIno: ""}
	walked := map[string]bool{}
	for queue := []uint64{RootIno}; len(queue) > 0; queue = queue[1:] {
		dir := queue[0]
		for _, d := range children[dir] {
			walked[d.key] = true
			a, ok := img.attrs[d.ino]
			_, seen := paths[d.ino]
			name := NameOfDentryKey(d.key)
			switch {
			case !ok:
				add(lostDentry, d.key, a, "%q/%s: dentry references missing attr (ino %d)", paths[dir], name, d.ino)
			case seen:
				what := "file"
				if a.Mode == ModeDir {
					what = "directory"
				}
				add(dupDentry, d.key, a, "%s ino %d linked twice (at %q/%s)", what, d.ino, paths[dir], name)
			default:
				paths[d.ino] = paths[dir] + "/" + name
				if a.Mode == ModeDir {
					queue = append(queue, d.ino)
				}
			}
		}
	}
	for _, d := range img.dents {
		if !walked[d.key] {
			add(lostDentry, d.key, Attr{}, "dentry %q in unreachable directory ino %d", NameOfDentryKey(d.key), d.pIno)
		}
	}
	for _, ino := range slices.Sorted(maps.Keys(img.owners)) {
		a, ok := img.attrs[ino]
		path, reached := paths[ino]
		if reached && ok && a.Mode != ModeDir && ino != RootIno {
			img.checkFile(add, path, a)
			continue
		}
		if ok && !reached {
			add(orphanAttr, AttrKey(ino), a, "orphan attribute KV for ino %d", ino)
		}
		if _, ok := img.smalls[ino]; ok {
			add(orphanData, SmallKey(ino), a, "orphan small-file KV for ino %d", ino)
		}
		for _, blk := range img.blocks[ino] {
			add(orphanData, BigKey(ino, blk), a, "orphan big-file block %d of ino %d", blk, ino)
		}
	}
	return finds, paths
}

// checkFile adds the findings of one reachable file, reached at path.
func (img *image) checkFile(add addFunc, path string, a Attr) {
	small := a.Size > 0 && a.Size <= SmallFileMax
	switch n, ok := img.smalls[a.Ino]; {
	case ok && !small:
		what := "big file still has"
		if a.Size == 0 {
			what = "empty file has"
		}
		add(straySmall, SmallKey(a.Ino), a, "%s: %s a small-file KV", path, what)
	case !ok && small:
		add(smallWrong, "", a, "%s: size %d but no small-file KV", path, a.Size)
	case ok && uint64(n) != a.Size:
		add(smallWrong, "", a, "%s: small KV holds %d bytes, attr says %d", path, n, a.Size)
	}
	want, inside := (a.Size+BlockSize-1)/BlockSize, uint64(0)
	for _, blk := range img.blocks[a.Ino] {
		if blk < want {
			inside++
		}
	}
	if a.Size > SmallFileMax && inside != want {
		add(blocksShort, "", a, "%s: %d big-file blocks, attr size %d implies %d", path, inside, a.Size, want)
	}
	for _, blk := range img.blocks[a.Ino] {
		switch {
		case blk >= want:
			add(strayBlock, BigKey(a.Ino, blk), a, "big-file block %d of ino %d lies past EOF %d", blk, a.Ino, a.Size)
		case small:
			add(strayBlock, BigKey(a.Ino, blk), a, "%s: small file also has big-file block %d", path, blk)
		}
	}
	if a.Size > SmallFileMax && a.Blocks != want {
		add(blocksField, "", a, "%s: attr.Blocks=%d, size implies %d", path, a.Blocks, want)
	}
}

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

// Fsck checks the file system the cluster's shard stores hold against KVFS's
// consistency rule (see image.inspect) and reports each finding, with counts
// of what the walk from the root reached. It reads the stored bytes only: it
// runs outside any process, spends no virtual time and bypasses — and
// leaves alone — every FS's attribute and dentry caches, so a KV missing
// from the store is missing whatever a cache still holds. Scavenge repairs
// exactly what it reports.
func Fsck(cluster *kv.Cluster) *FsckReport {
	img := scan(cluster)
	finds, paths := img.inspect()
	r := &FsckReport{Inodes: len(paths)}
	for ino := range paths {
		a := img.attrs[ino]
		switch {
		case ino == RootIno || a.Mode == ModeDir:
			r.Directories++
			continue
		case a.Size > SmallFileMax:
			for _, blk := range img.blocks[ino] {
				if blk*BlockSize < a.Size {
					r.BigBlocks++
				}
			}
		case a.Size > 0:
			r.SmallFiles++
		}
		r.Files++
	}
	for _, f := range finds {
		r.Problems = append(r.Problems, f.msg)
	}
	return r
}
