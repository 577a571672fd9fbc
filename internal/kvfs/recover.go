package kvfs

import (
	"encoding/binary"
	"sort"

	"dpc/internal/kv"
	"dpc/internal/sim"
)

// RecoverReport summarizes what Scavenge found and repaired in a
// crash-transplanted KV image.
type RecoverReport struct {
	MaxIno           uint64 // highest inode number referenced anywhere
	DanglingDentries int    // dentries whose target attribute was missing
	OrphanAttrs      int    // unreachable attributes (and their data) removed
	OrphanDataKVs    int    // small/big data KVs removed with their owners
	DupDentries      int    // extra links to one file collapsed (torn rename)
	RepairedFiles    int    // reachable files whose data KVs were normalized
}

// Scavenge makes a crash-transplanted KV image consistent again. KVFS
// metadata operations span several KV puts/deletes with no atomicity across
// them, so a crash can strand any prefix of one: an attribute without its
// dentry (torn create/mkdir), a dentry without its attribute (torn unlink),
// two links to one file or zero (torn rename), data KVs that disagree with
// the attribute's size (torn unlink/migration). Scavenge is the mount-time
// repair pass: it enumerates the surviving KVs, walks reachability from the
// root, deletes what nothing references, collapses duplicate links
// (keeping the first in key order, deterministically), and normalizes each
// reachable file's data representation to its attribute — reconstructing a
// small-file KV from a migrated block 0 where possible and zero-filling
// blocks that are genuinely gone (only a file whose operation was in
// flight at the crash can be in that state). Enumeration scans the shards
// directly (a shard-side scrub); every repair goes through the timed KV
// client like any other mutation.
//
// Run it on a freshly assembled system before WAL replay: replay rewrites
// journaled pages through the normal write path, which needs attributes it
// can trust.
func (fs *FS) Scavenge(p *sim.Proc, cluster *kv.Cluster) *RecoverReport {
	r := &RecoverReport{}

	// Enumerate the surviving image.
	type dent struct {
		key  string
		pIno uint64
		ino  uint64
	}
	attrs := map[uint64]Attr{}
	smalls := map[uint64]bool{}
	bigs := map[uint64][]uint64{} // ino -> block numbers, sorted below
	bigKeys := map[uint64]map[uint64]string{}
	var dents []dent
	for i := 0; i < cluster.Shards(); i++ {
		for _, kvp := range cluster.StoreOf(i).Scan("", 0) {
			switch kind, ino, blk := decodeKey(kvp.Key); kind {
			case 'a':
				a, err := UnmarshalAttr(kvp.Val)
				if err != nil {
					continue
				}
				attrs[ino] = a
			case 's':
				smalls[ino] = true
			case 'b':
				bigs[ino] = append(bigs[ino], blk)
				if bigKeys[ino] == nil {
					bigKeys[ino] = map[uint64]string{}
				}
				bigKeys[ino][blk] = kvp.Key
			case 'd':
				if len(kvp.Val) != 8 {
					continue
				}
				dents = append(dents, dent{
					key:  kvp.Key,
					pIno: ino,
					ino:  binary.LittleEndian.Uint64(kvp.Val),
				})
			}
		}
	}
	for ino := range attrs {
		if ino > r.MaxIno {
			r.MaxIno = ino
		}
	}
	for _, d := range dents {
		if d.ino > r.MaxIno {
			r.MaxIno = d.ino
		}
	}
	for ino, blks := range bigs {
		sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
		bigs[ino] = blks
	}
	sort.Slice(dents, func(i, j int) bool { return dents[i].key < dents[j].key })

	// Drop dangling dentries (torn unlink: attribute deleted, dentry not yet)
	// and collapse duplicate links to one non-directory (torn rename: new
	// dentry put, old not yet deleted — keep the first in key order).
	linked := map[uint64]bool{}
	kept := dents[:0]
	for _, d := range dents {
		a, ok := attrs[d.ino]
		switch {
		case !ok:
			fs.cl.Delete(p, d.key)
			delete(fs.dentryCache, d.key)
			r.DanglingDentries++
		case a.Mode != ModeDir && linked[d.ino]:
			fs.cl.Delete(p, d.key)
			delete(fs.dentryCache, d.key)
			r.DupDentries++
		default:
			linked[d.ino] = true
			kept = append(kept, d)
		}
	}
	dents = kept

	// Reachability from the root over the surviving dentries.
	children := map[uint64][]dent{}
	for _, d := range dents {
		children[d.pIno] = append(children[d.pIno], d)
	}
	reach := map[uint64]bool{RootIno: true}
	stack := []uint64{RootIno}
	for len(stack) > 0 {
		dir := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range children[dir] {
			if reach[d.ino] {
				continue
			}
			reach[d.ino] = true
			if attrs[d.ino].Mode == ModeDir {
				stack = append(stack, d.ino)
			}
		}
	}

	// Delete unreachable attributes and everything they own, including
	// dentries under unreachable directories.
	dropData := func(ino uint64) {
		if smalls[ino] {
			fs.cl.Delete(p, SmallKey(ino))
			delete(smalls, ino)
			r.OrphanDataKVs++
		}
		for _, blk := range bigs[ino] {
			fs.cl.Delete(p, bigKeys[ino][blk])
			r.OrphanDataKVs++
		}
		delete(bigs, ino)
	}
	for _, ino := range sortedInos(attrs) {
		if reach[ino] {
			continue
		}
		fs.cl.Delete(p, AttrKey(ino))
		delete(fs.attrCache, ino)
		dropData(ino)
		r.OrphanAttrs++
	}
	for _, d := range dents {
		if !reach[d.pIno] {
			fs.cl.Delete(p, d.key)
			delete(fs.dentryCache, d.key)
			r.DanglingDentries++
		}
	}
	// Data KVs whose owner has no attribute at all (torn unlink prefix).
	for _, ino := range sortedKeys(smalls) {
		if _, ok := attrs[ino]; !ok {
			dropData(ino)
		}
	}
	for _, ino := range sortedKeysBlocks(bigs) {
		if _, ok := attrs[ino]; !ok {
			dropData(ino)
		}
	}

	// Normalize each reachable file's data representation to its attribute.
	for _, ino := range sortedInos(attrs) {
		a := attrs[ino]
		if !reach[ino] || a.Mode != ModeFile {
			continue
		}
		if fs.repairFile(p, r, a, smalls[ino], bigs[ino], bigKeys[ino]) {
			r.RepairedFiles++
		}
	}
	return r
}

// repairFile normalizes one file: exactly one representation (small KV for
// size <= SmallFileMax, blocks covering [0,size) otherwise), sized to the
// attribute. Reports whether anything changed.
func (fs *FS) repairFile(p *sim.Proc, r *RecoverReport, a Attr, hasSmall bool, blks []uint64, blkKeys map[uint64]string) bool {
	changed := false
	dropBlocks := func(from uint64) {
		for _, blk := range blks {
			if blk >= from {
				fs.cl.Delete(p, blkKeys[blk])
				changed = true
			}
		}
	}
	switch {
	case a.Size == 0:
		if hasSmall {
			fs.cl.Delete(p, SmallKey(a.Ino))
			changed = true
		}
		dropBlocks(0)

	case a.Size <= SmallFileMax:
		var cur []byte
		if hasSmall {
			cur, _ = fs.cl.Get(p, SmallKey(a.Ino))
		} else if len(blks) > 0 && blks[0] == 0 {
			// Torn migration: the body already reached block 0 but the
			// attribute still says small. Pull it back.
			if enc, ok := fs.cl.Get(p, blkKeys[0]); ok {
				if dec, err := fs.decodeBlock(p, enc); err == nil {
					cur = dec
				}
			}
		}
		if uint64(len(cur)) != a.Size {
			buf := make([]byte, a.Size)
			copy(buf, cur)
			cur = buf
			changed = true
		} else if !hasSmall {
			changed = true
		}
		if changed {
			fs.cl.Put(p, SmallKey(a.Ino), cur[:a.Size])
		}
		dropBlocks(0)

	default:
		if hasSmall {
			// Torn migration the other way around: ensure block 0 carries
			// the body before dropping the small KV.
			if _, ok := blkKeys[0]; !ok {
				if small, ok := fs.cl.Get(p, SmallKey(a.Ino)); ok {
					buf := make([]byte, BlockSize)
					copy(buf, small)
					fs.cl.Put(p, BigKey(a.Ino, 0), fs.encodeBlock(p, buf))
					blks = append([]uint64{0}, blks...)
					if blkKeys == nil {
						blkKeys = map[uint64]string{}
					}
					blkKeys[0] = BigKey(a.Ino, 0)
				}
			}
			fs.cl.Delete(p, SmallKey(a.Ino))
			changed = true
		}
		want := (a.Size + BlockSize - 1) / BlockSize
		have := map[uint64]bool{}
		for _, blk := range blks {
			have[blk] = true
		}
		for blk := uint64(0); blk < want; blk++ {
			if !have[blk] {
				fs.cl.Put(p, BigKey(a.Ino, blk), fs.encodeBlock(p, make([]byte, BlockSize)))
				changed = true
			}
		}
		dropBlocks(want)
		if a.Blocks != want {
			a.Blocks = want
			fs.putAttr(p, a)
			changed = true
		}
	}
	return changed
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

func sortedInos(m map[uint64]Attr) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeysBlocks(m map[uint64][]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
