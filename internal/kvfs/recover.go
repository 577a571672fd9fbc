package kvfs

import (
	"slices"

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
	DupDentries      int    // extra links to one inode collapsed (torn rename)
	RepairedFiles    int    // reachable files whose data KVs were normalized
}

// Scavenge makes a crash-transplanted KV image consistent again. KVFS
// metadata operations span several KV puts/deletes with no atomicity across
// them, so a crash can strand any prefix of one: an attribute without its
// dentry (torn create/mkdir), a dentry without its attribute (torn unlink),
// two links to one inode (torn rename), data KVs that disagree with the
// attribute's size (torn unlink/migration). Scavenge is the mount-time
// repair pass: it repairs every finding Fsck would report, in their order —
// deleting what the walk from the root does not reach and the second link
// of an inode it reached twice, and normalizing each reachable file's data
// to its attribute: a small-file KV is rebuilt from a migrated block 0
// where there is one, and blocks that are genuinely gone are zero-filled
// (only a file whose operation was in flight at the crash can be in that
// state). The inspection reads the shard stores directly (a shard-side
// scrub); every repair goes through the timed KV client like any other
// mutation. Every repair leaves a state the inspection accepts or repairs
// again, so a crash during Scavenge is recovered by running it again.
//
// Run it on a freshly assembled system before WAL replay: replay rewrites
// journaled pages through the normal write path, which needs attributes it
// can trust.
func (fs *FS) Scavenge(p *sim.Proc, cluster *kv.Cluster) *RecoverReport {
	img := scan(cluster)
	finds, _ := img.inspect()
	r := &RecoverReport{MaxIno: img.maxIno}
	lastFile := uint64(RootIno) // the file of the last representation finding
	for _, f := range finds {
		switch f.kind {
		case badRoot:
			fs.Mount(p)
		case lostDentry, dupDentry:
			fs.cl.Delete(p, f.key)
			delete(fs.dentryCache, f.key)
			if f.kind == dupDentry {
				r.DupDentries++
			} else {
				r.DanglingDentries++
			}
		case orphanAttr:
			_, ino, _ := decodeKey(f.key)
			fs.cl.Delete(p, f.key)
			delete(fs.attrCache, ino)
			r.OrphanAttrs++
		case orphanData:
			fs.cl.Delete(p, f.key)
			r.OrphanDataKVs++
		default:
			if f.a.Ino != lastFile {
				r.RepairedFiles++
				lastFile = f.a.Ino
			}
			fs.repairFile(p, img, f)
		}
	}
	return r
}

// repairFile repairs one finding about a reachable file's representation.
func (fs *FS) repairFile(p *sim.Proc, img *image, f finding) {
	a := f.a
	switch f.kind {
	case strayBlock:
		fs.cl.Delete(p, f.key)
	case straySmall:
		// A torn small→big migration: make sure block 0 carries the body
		// before the small-file KV goes.
		if a.Size > 0 && !img.hasBlock(a.Ino, 0) {
			if small, ok := fs.cl.Get(p, f.key); ok {
				buf := make([]byte, BlockSize)
				copy(buf, small)
				fs.cl.Put(p, BigKey(a.Ino, 0), fs.encodeBlock(p, buf))
				img.blocks[a.Ino] = slices.Insert(img.blocks[a.Ino], 0, 0)
			}
		}
		fs.cl.Delete(p, f.key)
	case smallWrong:
		var cur []byte
		if _, ok := img.smalls[a.Ino]; ok {
			cur, _ = fs.cl.Get(p, SmallKey(a.Ino))
		} else if img.hasBlock(a.Ino, 0) {
			// A torn migration the body already reached block 0 of while
			// the attribute still says small: pull it back.
			if enc, ok := fs.cl.Get(p, BigKey(a.Ino, 0)); ok {
				if dec, err := fs.decodeBlock(p, enc); err == nil {
					cur = dec
				}
			}
		}
		buf := make([]byte, a.Size)
		copy(buf, cur)
		fs.cl.Put(p, SmallKey(a.Ino), buf)
	case blocksShort:
		for blk := range (a.Size + BlockSize - 1) / BlockSize {
			if !img.hasBlock(a.Ino, blk) {
				fs.cl.Put(p, BigKey(a.Ino, blk), fs.encodeBlock(p, make([]byte, BlockSize)))
			}
		}
	case blocksField:
		a.Blocks = (a.Size + BlockSize - 1) / BlockSize
		fs.putAttr(p, a)
	}
}
