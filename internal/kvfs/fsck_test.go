package kvfs

import (
	"fmt"
	"slices"
	"testing"

	"dpc/internal/sim"
)

func TestFsckCleanFS(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		fs.Mkdir(p, "/dir")
		for i := 0; i < 5; i++ {
			ino, _ := fs.Create(p, fmt.Sprintf("/dir/small%d", i))
			fs.Write(p, ino, 0, make([]byte, 1000*(i+1)))
		}
		big, _ := fs.Create(p, "/dir/big")
		fs.Write(p, big, 0, make([]byte, 5*BlockSize))
		empty, _ := fs.Create(p, "/empty")
		_ = empty
	})
	r := Fsck(cluster)
	if !r.OK() {
		t.Fatalf("clean FS reported problems: %v", r.Problems)
	}
	if r.Files != 7 || r.Directories != 2 || r.SmallFiles != 5 || r.BigBlocks != 5 {
		t.Fatalf("counts: %+v", r)
	}
}

func TestFsckDetectsMissingAttr(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/victim")
	})
	// Corrupt: delete the attribute KV directly in the store. The FS's
	// attribute cache still holds it; fsck reads the store.
	key := AttrKey(ino)
	cluster.StoreOf(cluster.ShardFor(key)).Delete([]byte(key))
	if _, cached := fs.attrCache[ino]; !cached {
		t.Fatal("setup: the attribute is not cached")
	}
	r := Fsck(cluster)
	if r.OK() {
		t.Fatal("missing attribute KV not detected")
	}
}

func TestFsckDetectsMissingBlock(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/holey")
		fs.Write(p, ino, 0, make([]byte, 3*BlockSize))
	})
	key := BigKey(ino, 1)
	cluster.StoreOf(cluster.ShardFor(key)).Delete([]byte(key))
	r := Fsck(cluster)
	if r.OK() {
		t.Fatal("missing big-file block not detected")
	}
}

func TestFsckDetectsOrphanAttr(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		fs.Create(p, "/real")
		// Plant an orphan attribute with no dentry pointing at it.
		orphan := Attr{Ino: 999, Mode: ModeFile, Nlink: 1}
		fs.cl.Put(p, AttrKey(999), orphan.Marshal())
	})
	r := Fsck(cluster)
	if r.OK() {
		t.Fatal("orphan attribute not detected")
	}
}

// TestFsckDetectsOrphanData: data KVs of an inode with no attribute — what a
// torn unlink, or one that deleted by a stale size, leaves — are reported.
func TestFsckDetectsOrphanData(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		fs.Create(p, "/real")
		fs.cl.Put(p, SmallKey(999), []byte("lost"))
		fs.cl.Put(p, BigKey(998, 2), make([]byte, BlockSize))
	})
	r := Fsck(cluster)
	slices.Sort(r.Problems)
	want := []string{"orphan big-file block 2 of ino 998", "orphan small-file KV for ino 999"}
	if !slices.Equal(r.Problems, want) {
		t.Fatalf("problems = %q, want %q", r.Problems, want)
	}
}

func TestFsckDetectsSizeMismatch(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/lying")
		fs.Write(p, ino, 0, make([]byte, 4000))
		// Corrupt: claim a bigger size than the small KV holds.
		a, _ := fs.getAttr(p, ino)
		a.Size = 6000
		fs.putAttr(p, a)
	})
	r := Fsck(cluster)
	if r.OK() {
		t.Fatal("size mismatch not detected")
	}
}

func TestFsckDetectsBlockPastEOF(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/big")
		fs.Write(p, ino, 0, make([]byte, 2*BlockSize))
		fs.cl.Put(p, BigKey(ino, 5), make([]byte, BlockSize))
	})
	r := Fsck(cluster)
	want := []string{fmt.Sprintf("big-file block 5 of ino %d lies past EOF %d", ino, 2*BlockSize)}
	if !slices.Equal(r.Problems, want) {
		t.Fatalf("problems = %q, want %q", r.Problems, want)
	}
}
