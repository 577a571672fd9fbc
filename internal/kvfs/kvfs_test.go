package kvfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dpc/internal/kv"
	"dpc/internal/model"
	"dpc/internal/sim"
)

func newTestFS(t *testing.T) (*model.Machine, *kv.Cluster, *FS) {
	t.Helper()
	m := model.NewMachine(model.Default())
	cluster := kv.NewCluster(m.Eng, m.Net, kv.DefaultClusterConfig())
	t.Cleanup(m.Eng.Shutdown)
	fs := New(m, cluster.NewClient(m.DPUNode))
	m.Eng.Go("mount", fs.Mount)
	m.Eng.Run()
	return m, cluster, fs
}

func run(m *model.Machine, fn func(p *sim.Proc)) {
	m.Eng.Go("test", fn)
	m.Eng.Run()
}

func TestAttrRoundTripProperty(t *testing.T) {
	f := func(ino uint64, mode, perm, nlink, uid, gid uint32, size, ctime, mtime, blocks uint64) bool {
		a := Attr{Ino: ino, Mode: mode, Perm: perm, Size: size, Nlink: nlink,
			UID: uid, GID: gid, Ctime: ctime, Mtime: mtime, Blocks: blocks}
		got, err := UnmarshalAttr(a.Marshal())
		return err == nil && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeySchema(t *testing.T) {
	// All keys of one inode share the 9-byte routing prefix.
	if DentryKey(5, "x")[:9] != DentryPrefix(5) {
		t.Fatal("dentry key prefix mismatch")
	}
	if AttrKey(5)[:1] != "a" || SmallKey(5)[:1] != "s" || BigKey(5, 0)[:1] != "b" {
		t.Fatal("type bytes wrong")
	}
	if len(BigKey(7, 3)) != 25 {
		t.Fatalf("big key length = %d", len(BigKey(7, 3)))
	}
	if NameOfDentryKey(DentryKey(1, "hello.txt")) != "hello.txt" {
		t.Fatal("name recovery failed")
	}
	// Block keys are unique per (ino, blk)...
	if BigKey(1, 1) == BigKey(1, 2) || BigKey(1, 1) == BigKey(2, 1) {
		t.Fatal("big keys collide")
	}
	// ...and spread across routing prefixes so a file's blocks hit many
	// shards (the first 9 bytes differ between consecutive blocks).
	if BigKey(1, 1)[:9] == BigKey(1, 2)[:9] {
		t.Fatal("big-file blocks share a routing prefix")
	}
}

func TestCreateLookupGetattr(t *testing.T) {
	m, _, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, err := fs.Create(p, "/file.txt")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		got, err := fs.Lookup(p, "/file.txt")
		if err != nil || got != ino {
			t.Errorf("Lookup = %d,%v", got, err)
		}
		a, err := fs.Getattr(p, ino)
		if err != nil || a.Mode != ModeFile || a.Size != 0 {
			t.Errorf("Getattr = %+v,%v", a, err)
		}
		if _, err := fs.Create(p, "/file.txt"); err != ErrExists {
			t.Errorf("dup create = %v", err)
		}
		if _, err := fs.Lookup(p, "/ghost"); err != ErrNotFound {
			t.Errorf("ghost lookup = %v", err)
		}
	})
}

func TestDeepPathsAndReaddir(t *testing.T) {
	m, _, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		if _, err := fs.Mkdir(p, "/a"); err != nil {
			t.Errorf("mkdir /a: %v", err)
		}
		if _, err := fs.Mkdir(p, "/a/b"); err != nil {
			t.Errorf("mkdir /a/b: %v", err)
		}
		for i := 0; i < 5; i++ {
			if _, err := fs.Create(p, fmt.Sprintf("/a/b/f%d", i)); err != nil {
				t.Errorf("create f%d: %v", i, err)
			}
		}
		ents, err := fs.Readdir(p, "/a/b")
		if err != nil || len(ents) != 5 {
			t.Errorf("Readdir = %d entries, %v", len(ents), err)
		}
		// Directory listing is a prefix scan: results come back ordered.
		for i := 1; i < len(ents); i++ {
			if !(ents[i-1].Name < ents[i].Name) {
				t.Error("readdir unordered")
			}
		}
		if _, err := fs.Readdir(p, "/a/b/f0"); err != ErrNotDir {
			t.Errorf("Readdir on file = %v", err)
		}
	})
}

func TestSmallFileWholeKVRewrite(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/small")
		fs.Write(p, ino, 0, []byte("hello"))
		fs.Write(p, ino, 5, []byte(" world"))
		got, err := fs.Read(p, ino, 0, 100)
		if err != nil || string(got) != "hello world" {
			t.Errorf("Read = %q, %v", got, err)
		}
	})
	// The data must live in a single small-file KV.
	sh := cluster.ShardFor(SmallKey(ino))
	if v, ok := cluster.StoreOf(sh).Get([]byte(SmallKey(ino))); !ok || string(v) != "hello world" {
		t.Fatalf("small KV = %q,%v", v, ok)
	}
}

func TestSmallToBigMigration(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	payload := make([]byte, 20000)
	rand.New(rand.NewSource(3)).Read(payload)
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/grow")
		// Start small...
		fs.Write(p, ino, 0, payload[:4000])
		// ...grow past 8 KB: must migrate to big-file KVs.
		fs.Write(p, ino, 4000, payload[4000:])
		got, err := fs.Read(p, ino, 0, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read after migration mismatch (err=%v)", err)
		}
	})
	// The small KV must be gone and big-file block KVs present.
	if _, ok := cluster.StoreOf(cluster.ShardFor(SmallKey(ino))).Get([]byte(SmallKey(ino))); ok {
		t.Fatal("small KV still present after migration")
	}
	blk0 := BigKey(ino, 0)
	if v, ok := cluster.StoreOf(cluster.ShardFor(blk0)).Get([]byte(blk0)); !ok || !bytes.Equal(v, payload[:BlockSize]) {
		t.Fatal("big block 0 wrong after migration")
	}
}

func TestBigFileInPlaceUpdate(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/big")
		fs.Write(p, ino, 0, make([]byte, 4*BlockSize))
		// In-place update of block 2 only.
		patch := bytes.Repeat([]byte{0xEE}, BlockSize)
		fs.Write(p, ino, 2*BlockSize, patch)
		got, _ := fs.Read(p, ino, 2*BlockSize, BlockSize)
		if !bytes.Equal(got, patch) {
			t.Error("in-place update not visible")
		}
		got, _ = fs.Read(p, ino, 0, BlockSize)
		if !bytes.Equal(got, make([]byte, BlockSize)) {
			t.Error("neighboring block disturbed")
		}
	})
	// Exactly 4 block KVs + attr + dentry; no small KV.
	count := 0
	for i := 0; i < cluster.Shards(); i++ {
		count += cluster.StoreOf(i).Len()
	}
	// root attr + file attr + dentry + 4 blocks = 7
	if count != 7 {
		t.Fatalf("cluster holds %d keys, want 7", count)
	}
}

func TestUnlinkRemovesAllKVs(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/doomed")
		fs.Write(p, ino, 0, make([]byte, 3*BlockSize))
		if err := fs.Unlink(p, "/doomed"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if _, err := fs.Lookup(p, "/doomed"); err != ErrNotFound {
			t.Errorf("lookup after unlink = %v", err)
		}
	})
	total := 0
	for i := 0; i < cluster.Shards(); i++ {
		total += cluster.StoreOf(i).Len()
	}
	if total != 1 { // only the root attr remains
		t.Fatalf("cluster holds %d keys after unlink, want 1", total)
	}
}

// TestUnlinkWaitsOutMigration: an Unlink that meets the inode lock of a Write
// growing the file from small to big deletes what the file holds once the
// lock is its own — the three blocks — not the small-file KV it saw before.
func TestUnlinkWaitsOutMigration(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/growing")
		fs.Write(p, ino, 0, make([]byte, SmallFileMax))
	})
	m.Eng.Go("writer", func(p *sim.Proc) {
		if err := fs.Write(p, ino, SmallFileMax, make([]byte, 2*BlockSize)); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	m.Eng.Go("unlinker", func(p *sim.Proc) {
		for fs.inoLocks[ino] == nil { // until the writer holds the inode lock
			p.Sleep(time.Microsecond)
		}
		if err := fs.Unlink(p, "/growing"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
	})
	m.Eng.Run()
	total := 0
	for i := 0; i < cluster.Shards(); i++ {
		total += cluster.StoreOf(i).Len()
	}
	if total != 1 { // only the root attr remains
		t.Fatalf("cluster holds %d keys after unlink, want 1", total)
	}
}

func TestRmdirSemantics(t *testing.T) {
	m, _, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		fs.Mkdir(p, "/d")
		fs.Create(p, "/d/f")
		if err := fs.Rmdir(p, "/d"); err != ErrNotEmpty {
			t.Errorf("rmdir non-empty = %v", err)
		}
		fs.Unlink(p, "/d/f")
		if err := fs.Rmdir(p, "/d"); err != nil {
			t.Errorf("rmdir empty: %v", err)
		}
		if err := fs.Rmdir(p, "/d"); err != ErrNotFound {
			t.Errorf("rmdir twice = %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	m, _, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/old")
		fs.Write(p, ino, 0, []byte("data"))
		fs.Mkdir(p, "/sub")
		if err := fs.Rename(p, "/old", "/sub/new"); err != nil {
			t.Errorf("Rename: %v", err)
		}
		if _, err := fs.Lookup(p, "/old"); err != ErrNotFound {
			t.Error("old path still resolves")
		}
		got, err := fs.Lookup(p, "/sub/new")
		if err != nil || got != ino {
			t.Errorf("new path = %d,%v", got, err)
		}
		data, _ := fs.Read(p, ino, 0, 4)
		if string(data) != "data" {
			t.Error("data lost in rename")
		}
	})
}

// A directory cannot move into its own subtree: the rename would leave the
// subtree linked only from inside itself, unreachable from the root, and the
// next Scavenge would delete it.
func TestRenameIntoOwnSubtreeRefused(t *testing.T) {
	m, cluster, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		fs.Mkdir(p, "/a")
		fs.Mkdir(p, "/a/b")
		ino, _ := fs.Create(p, "/a/b/f")
		fs.Write(p, ino, 0, []byte("kept"))
		for _, mv := range [][2]string{{"/a", "/a/b/c"}, {"/a", "/a/c"}, {"/a/b/", "/a/b/c"}} {
			if err := fs.Rename(p, mv[0], mv[1]); err != ErrBadName {
				t.Errorf("Rename(%q, %q) = %v, want ErrBadName", mv[0], mv[1], err)
			}
		}
		// A sibling whose name extends the source's is not inside it.
		if err := fs.Rename(p, "/a", "/ab"); err != nil {
			t.Errorf("Rename(/a, /ab): %v", err)
		}
		got, err := fs.Lookup(p, "/ab/b/f")
		if data, _ := fs.Read(p, got, 0, 16); err != nil || got != ino || string(data) != "kept" {
			t.Errorf("/ab/b/f = ino %d %q, %v; want ino %d \"kept\"", got, data, err, ino)
		}
	})
	if r := Fsck(cluster); !r.OK() || r.Directories != 3 || r.Files != 1 {
		t.Errorf("fsck after the refused renames: %+v", r)
	}
}

func TestTruncate(t *testing.T) {
	m, _, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/t")
		fs.Write(p, ino, 0, make([]byte, 2*BlockSize))
		if err := fs.Truncate(p, ino); err != nil {
			t.Errorf("Truncate: %v", err)
		}
		a, _ := fs.Getattr(p, ino)
		if a.Size != 0 || a.Blocks != 0 {
			t.Errorf("attr after truncate = %+v", a)
		}
		if d, _ := fs.Read(p, ino, 0, 10); len(d) != 0 {
			t.Error("read after truncate returned data")
		}
	})
}

func TestNameTooLong(t *testing.T) {
	m, _, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		long := "/" + string(bytes.Repeat([]byte{'x'}, MaxNameLen+1))
		if _, err := fs.Create(p, long); err != ErrBadName {
			t.Errorf("long name create = %v", err)
		}
	})
}

func TestPageBackendRoundTrip(t *testing.T) {
	m, _, fs := newTestFS(t)
	b := PageBackend{FS: fs}
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/pb")
		payload := bytes.Repeat([]byte{7}, BlockSize)
		// WritePage never extends the file: the EOF is published first
		// (as the client's buffered-write path does) and write-back is
		// clamped to it.
		if err := fs.SetSize(p, ino, BlockSize); err != nil {
			t.Fatalf("SetSize: %v", err)
		}
		b.WritePage(p, ino, 0, BlockSize, payload)
		got, ok := b.ReadPage(p, ino, 0, BlockSize)
		if !ok || !bytes.Equal(got, payload) {
			t.Error("PageBackend round trip failed")
		}
		if _, ok := b.ReadPage(p, ino, 99, BlockSize); ok {
			t.Error("ReadPage past EOF succeeded")
		}
		// A flush of a page wholly past EOF is dropped, and a tail page is
		// clamped: neither may grow the file.
		b.WritePage(p, ino, 5, BlockSize, payload)
		if a, _ := fs.Getattr(p, ino); a.Size != BlockSize {
			t.Errorf("WritePage past EOF grew file to %d", a.Size)
		}
		tail := uint64(BlockSize + 100)
		if err := fs.SetSize(p, ino, tail); err != nil {
			t.Fatalf("SetSize: %v", err)
		}
		b.WritePage(p, ino, 1, BlockSize, payload)
		if a, _ := fs.Getattr(p, ino); a.Size != tail {
			t.Errorf("tail-page flush grew file to %d, want %d", a.Size, tail)
		}
		if d, err := fs.Read(p, ino, BlockSize, 2*BlockSize); err != nil || len(d) != 100 {
			t.Errorf("tail read = %d bytes, err %v, want 100", len(d), err)
		}
	})
}

// Property: random aligned and unaligned writes followed by reads match a
// byte-slice model across the small/big boundary. Most writes run up to
// 3 000 bytes, so small files still occur; every fourth runs up to 30 000,
// and a last fixed write always spans four blocks with an unaligned head and
// tail (migrating the file if it is still small). An unaligned sub-range
// spanning several blocks then reads back through ReadInto: the per-block
// windows a multi-block range forks.
func TestKVFSDataModelProperty(t *testing.T) {
	type wop struct {
		Off  uint16
		Len  uint16
		Seed uint8
	}
	f := func(ops []wop) bool {
		if len(ops) > 12 {
			ops = ops[:12]
		}
		m := model.NewMachine(model.Default())
		cluster := kv.NewCluster(m.Eng, m.Net, kv.DefaultClusterConfig())
		fs := New(m, cluster.NewClient(m.DPUNode))
		m.Eng.Go("mount", fs.Mount)
		m.Eng.Run()
		ok := true
		run(m, func(p *sim.Proc) {
			ino, _ := fs.Create(p, "/prop")
			modelBuf := make([]byte, 1<<17)
			maxEnd := 0
			for i, o := range append(ops, wop{Off: 1000, Len: 3*BlockSize + 500, Seed: 0xA5}) {
				off := int(o.Off) % 60000
				n := int(o.Len)%3000 + 1
				if i == len(ops) {
					n = int(o.Len)
				} else if i%4 == 3 {
					n = int(o.Len)%30000 + 1
				}
				chunk := bytes.Repeat([]byte{o.Seed}, n)
				if err := fs.Write(p, ino, uint64(off), chunk); err != nil {
					ok = false
					return
				}
				copy(modelBuf[off:], chunk)
				if off+n > maxEnd {
					maxEnd = off + n
				}
			}
			got, err := fs.Read(p, ino, 0, maxEnd)
			if err != nil || !bytes.Equal(got, modelBuf[:maxEnd]) {
				ok = false
			}
			// Both ends odd, so neither is block-aligned.
			lo, hi := maxEnd/7|1, (maxEnd-3)|1
			dst := bytes.Repeat([]byte{0xEE}, hi-lo)
			if n, err := fs.ReadInto(p, ino, uint64(lo), dst); err != nil || n != hi-lo || !bytes.Equal(dst, modelBuf[lo:hi]) {
				ok = false
			}
		})
		m.Eng.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteMigrationCrossingSmallMax is the regression test for the
// small→big migration ordering: a write that pushes an existing small file
// past SmallFileMax must first copy the small body into big blocks, then
// write the new data, and delete the small KV only after both are durable.
// The reordered (delete-first) variant loses the small body whenever the
// new write does not fully cover it.
func TestWriteMigrationCrossingSmallMax(t *testing.T) {
	m, cluster, fs := newTestFS(t)

	first := make([]byte, 5000)
	second := make([]byte, 6000)
	for i := range first {
		first[i] = byte(3*i + 1)
	}
	for i := range second {
		second[i] = byte(5*i + 2)
	}
	want := make([]byte, 10000)
	copy(want, first)
	copy(want[4000:], second)

	var got []byte
	var probs []string
	run(m, func(p *sim.Proc) {
		ino, err := fs.Create(p, "/mig")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := fs.Write(p, ino, 0, first); err != nil {
			t.Errorf("small write: %v", err)
			return
		}
		// 4000+6000 = 10000 > SmallFileMax: triggers the migration.
		if err := fs.Write(p, ino, 4000, second); err != nil {
			t.Errorf("migrating write: %v", err)
			return
		}
		got, err = fs.Read(p, ino, 0, 20000)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	probs = Fsck(cluster).Problems

	if !bytes.Equal(got, want) {
		t.Errorf("content mangled by migration: got %d bytes, want %d", len(got), len(want))
	}
	if len(probs) > 0 {
		t.Errorf("fsck after migration: %v", probs)
	}
}
