package kvfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dpc/internal/kv"
	"dpc/internal/model"
	"dpc/internal/sim"
)

// tree is a populated file system — directories, empty, small and big files
// — whose shard image can be torn the ways a crash tears KVFS operations and
// restored between seeds.
type tree struct {
	m       *model.Machine
	cluster *kv.Cluster
	dirs    []uint64 // root first
	files   []Attr
	image   [][]kv.KV // per shard, as populated
	next    uint64    // the next fresh inode number
}

func newTree(t *testing.T) *tree {
	m, cluster, fs := newTestFS(t)
	tr := &tree{m: m, cluster: cluster, dirs: []uint64{RootIno}}
	run(m, func(p *sim.Proc) {
		for _, d := range []string{"/d", "/d/e", "/g"} {
			ino, _ := fs.Mkdir(p, d)
			tr.dirs = append(tr.dirs, ino)
		}
		parents := []string{"", "/d", "/d/e", "/g"}
		for i, size := range []int{0, 100, 3000, SmallFileMax, SmallFileMax + 1, 3 * BlockSize, 3*BlockSize + 100, 0} {
			ino, _ := fs.Create(p, fmt.Sprintf("%s/f%d", parents[i%len(parents)], i))
			if size > 0 {
				fs.Write(p, ino, 0, bytes.Repeat([]byte{byte(i + 1)}, size))
			}
			a, _ := fs.Getattr(p, ino)
			tr.files = append(tr.files, a)
		}
	})
	for i := range cluster.Shards() {
		tr.image = append(tr.image, cluster.StoreOf(i).Scan("", 0))
	}
	tr.restore()
	return tr
}

// restore puts the populated image back into every shard.
func (tr *tree) restore() {
	for i, want := range tr.image {
		st := tr.cluster.StoreOf(i)
		for _, kvp := range st.Scan("", 0) {
			st.Delete([]byte(kvp.Key))
		}
		for _, kvp := range want {
			st.Put([]byte(kvp.Key), append([]byte(nil), kvp.Val...))
		}
	}
	tr.next = 1000
}

func (tr *tree) put(key string, val []byte) {
	tr.cluster.StoreOf(tr.cluster.ShardFor(key)).Put([]byte(key), val)
}
func (tr *tree) del(key string) { tr.cluster.StoreOf(tr.cluster.ShardFor(key)).Delete([]byte(key)) }

func (tr *tree) fresh() uint64 { tr.next++; return tr.next }

func (tr *tree) link(dir uint64, name string, ino uint64) {
	tr.put(DentryKey(dir, name), binary.LittleEndian.AppendUint64(nil, ino))
}

// pick returns a random file whose size is in [lo, hi].
func (tr *tree) pick(rng *rand.Rand, lo, hi uint64) Attr {
	var in []Attr
	for _, a := range tr.files {
		if a.Size >= lo && a.Size <= hi {
			in = append(in, a)
		}
	}
	return in[rng.Intn(len(in))]
}

const anySize = ^uint64(0)

// tornStates are the crash-prefix states of KVFS operations, each applied to
// a random fitting target: the corruptions the TestFsckDetects* tests plant,
// and a torn directory rename, torn migrations both ways and a torn unlink.
var tornStates = []struct {
	name string
	tear func(tr *tree, rng *rand.Rand)
}{
	{"missing attr", func(tr *tree, rng *rand.Rand) { tr.del(AttrKey(tr.pick(rng, 0, anySize).Ino)) }},
	{"missing block", func(tr *tree, rng *rand.Rand) {
		a := tr.pick(rng, SmallFileMax+1, anySize)
		tr.del(BigKey(a.Ino, uint64(rng.Intn(int(a.Blocks)))))
	}},
	{"orphan attr", func(tr *tree, rng *rand.Rand) {
		a := Attr{Ino: tr.fresh(), Mode: ModeFile, Nlink: 1, Size: uint64(rng.Intn(3 * BlockSize))}
		tr.put(AttrKey(a.Ino), a.Marshal())
	}},
	{"orphan data", func(tr *tree, rng *rand.Rand) {
		tr.put(SmallKey(tr.fresh()), []byte("lost"))
		tr.put(BigKey(tr.fresh(), uint64(rng.Intn(4))), make([]byte, BlockSize))
	}},
	{"size mismatch", func(tr *tree, rng *rand.Rand) {
		a := tr.pick(rng, 1, SmallFileMax-1)
		a.Size += 1 + uint64(rng.Intn(int(SmallFileMax-a.Size)))
		tr.put(AttrKey(a.Ino), a.Marshal())
	}},
	{"block past EOF", func(tr *tree, rng *rand.Rand) {
		a := tr.pick(rng, 0, anySize)
		tr.put(BigKey(a.Ino, a.Blocks+uint64(rng.Intn(3))), make([]byte, BlockSize))
	}},
	{"duplicate directory link", func(tr *tree, rng *rand.Rand) {
		// A torn rename of a directory: the new dentry is in, the old one
		// not yet out. The new parent may lie inside the directory moved.
		tr.link(tr.dirs[rng.Intn(len(tr.dirs))], fmt.Sprintf("moved%d", tr.fresh()), tr.dirs[1+rng.Intn(len(tr.dirs)-1)])
	}},
	{"torn small-to-big migration", func(tr *tree, rng *rand.Rand) {
		// The body reached block 0 (and the write a later block); the small
		// KV may be gone, the attribute still says small.
		a := tr.pick(rng, 1, SmallFileMax)
		tr.put(BigKey(a.Ino, 0), bytes.Repeat([]byte{0x5A}, BlockSize))
		tr.put(BigKey(a.Ino, 1), make([]byte, BlockSize))
		if rng.Intn(2) == 0 {
			tr.del(SmallKey(a.Ino))
		}
	}},
	{"torn big-to-small migration", func(tr *tree, rng *rand.Rand) {
		// The attribute says big while a small-file KV is still there, and
		// block 0 may not have landed.
		a := tr.pick(rng, SmallFileMax+1, anySize)
		tr.put(SmallKey(a.Ino), bytes.Repeat([]byte{0xA5}, 1+rng.Intn(SmallFileMax)))
		if rng.Intn(2) == 0 {
			tr.del(BigKey(a.Ino, 0))
		}
	}},
	{"dangling dentry", func(tr *tree, rng *rand.Rand) {
		// A torn unlink: data and attribute gone, the dentry not yet.
		if rng.Intn(2) == 0 {
			tr.link(tr.dirs[rng.Intn(len(tr.dirs))], fmt.Sprintf("gone%d", tr.fresh()), tr.next)
			return
		}
		a := tr.pick(rng, 0, anySize)
		tr.del(AttrKey(a.Ino))
		tr.del(SmallKey(a.Ino))
		for blk := range a.Blocks {
			tr.del(BigKey(a.Ino, blk))
		}
	}},
}

// scavenge runs Scavenge on a fresh FS over the image, as recovery does.
func (tr *tree) scavenge() *RecoverReport {
	fs := New(tr.m, tr.cluster.NewClient(tr.m.DPUNode))
	var r *RecoverReport
	run(tr.m, func(p *sim.Proc) { r = fs.Scavenge(p, tr.cluster) })
	return r
}

// checkRecovered: after one Scavenge fsck is clean, and a second repairs
// nothing. It returns the first's report.
func checkRecovered(t *testing.T, tr *tree, what string) *RecoverReport {
	t.Helper()
	first := tr.scavenge()
	if probs := Fsck(tr.cluster).Problems; len(probs) > 0 {
		t.Fatalf("%s: fsck after Scavenge (report %+v): %q", what, *first, probs)
	}
	if second := tr.scavenge(); *second != (RecoverReport{MaxIno: second.MaxIno}) {
		t.Fatalf("%s: second Scavenge repaired %+v after the first's %+v", what, *second, *first)
	}
	return first
}

// Each torn state alone is reported by fsck and repaired by one Scavenge.
func TestScavengeRepairsEachTornState(t *testing.T) {
	tr := newTree(t)
	if r := Fsck(tr.cluster); !r.OK() || r.Directories != 4 || r.Files != 8 {
		t.Fatalf("populated tree: %+v", r)
	}
	for _, s := range tornStates {
		for seed := range int64(4) {
			tr.restore()
			s.tear(tr, rand.New(rand.NewSource(seed)))
			if Fsck(tr.cluster).OK() {
				t.Fatalf("%s (seed %d): fsck found nothing", s.name, seed)
			}
			checkRecovered(t, tr, fmt.Sprintf("%s (seed %d)", s.name, seed))
		}
	}
}

// A directory linked twice, the state a torn directory rename leaves, keeps
// one link: the walk reaches its first one, breadth first.
func TestScavengeCollapsesDuplicateDirectoryLink(t *testing.T) {
	tr := newTree(t)
	d, e := tr.dirs[1], tr.dirs[2] // /d and /d/e
	tr.link(RootIno, "e2", e)
	if r := checkRecovered(t, tr, "second link"); r.DupDentries != 1 {
		t.Errorf("second link: report %+v", *r)
	}
	tr.restore()
	tr.link(e, "loop", d) // a cycle: /d/e/loop -> /d
	if r := checkRecovered(t, tr, "cycle"); r.DupDentries != 1 || r.OrphanAttrs != 0 {
		t.Errorf("cycle: report %+v", *r)
	}
}

// Property: any mix of one to six torn states over the populated tree is
// repaired by one Scavenge, and a second finds nothing to do.
func TestScavengeTornStatesProperty(t *testing.T) {
	tr := newTree(t)
	for seed := range int64(300) {
		rng := rand.New(rand.NewSource(seed))
		tr.restore()
		var names []string
		for range 1 + rng.Intn(6) {
			s := tornStates[rng.Intn(len(tornStates))]
			s.tear(tr, rng)
			names = append(names, s.name)
		}
		checkRecovered(t, tr, fmt.Sprintf("seed %d %q", seed, names))
	}
}

// A torn migration's body survives the repair: a small file whose body
// reached block 0 before its small-file KV went reads block 0 back, and a
// big file whose block 0 never landed reads its small-file KV back.
func TestScavengeKeepsMigratedBody(t *testing.T) {
	tr := newTree(t)
	small, big := tr.files[2], tr.files[5] // 3000 bytes, three blocks
	tr.put(BigKey(small.Ino, 0), bytes.Repeat([]byte{0x5A}, BlockSize))
	tr.del(SmallKey(small.Ino))
	tr.put(SmallKey(big.Ino), bytes.Repeat([]byte{0xA5}, 5000))
	tr.del(BigKey(big.Ino, 0))
	checkRecovered(t, tr, "torn migrations")
	fs := New(tr.m, tr.cluster.NewClient(tr.m.DPUNode))
	run(tr.m, func(p *sim.Proc) {
		if got, _ := fs.Read(p, small.Ino, 0, SmallFileMax); !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 3000)) {
			t.Errorf("small file reads %d bytes %.8x..., want its block 0", len(got), got)
		}
		want := append(bytes.Repeat([]byte{0xA5}, 5000), make([]byte, BlockSize-5000)...)
		if got, _ := fs.Read(p, big.Ino, 0, BlockSize); !bytes.Equal(got, want) {
			t.Errorf("big file's block 0 reads %.8x..., want its small-file KV", got)
		}
	})
}
