package localfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/ssd"
)

func newTestFS(t *testing.T) (*model.Machine, *FS) {
	t.Helper()
	cfg := model.Default()
	cfg.SSD.CapacityMB = 256
	m := model.NewMachine(cfg)
	dev := ssd.New(m.Eng, cfg.SSD)
	fs := New(m, dev, DefaultConfig())
	return m, fs
}

// run executes fn inside a sim process and drains the engine.
func run(m *model.Machine, fn func(p *sim.Proc)) {
	m.Eng.Go("test", fn)
	m.Eng.Run()
}

func TestCreateLookupStat(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, err := fs.Create(p, "/hello.txt")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		got, _, err := fs.Lookup(p, "/hello.txt")
		if err != nil || got != ino {
			t.Errorf("Lookup = %d,%v want %d", got, err, ino)
		}
		attr, err := fs.Stat(p, ino)
		if err != nil || attr.Mode != ModeFile || attr.Size != 0 {
			t.Errorf("Stat = %+v,%v", attr, err)
		}
		if _, err := fs.Create(p, "/hello.txt"); err != ErrExists {
			t.Errorf("duplicate Create err = %v", err)
		}
		if _, _, err := fs.Lookup(p, "/nope"); err != ErrNotFound {
			t.Errorf("missing Lookup err = %v", err)
		}
	})
}

func TestMkdirNesting(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		if _, err := fs.Mkdir(p, "/a"); err != nil {
			t.Errorf("Mkdir /a: %v", err)
		}
		if _, err := fs.Mkdir(p, "/a/b"); err != nil {
			t.Errorf("Mkdir /a/b: %v", err)
		}
		if _, err := fs.Create(p, "/a/b/f"); err != nil {
			t.Errorf("Create /a/b/f: %v", err)
		}
		if _, err := fs.Mkdir(p, "/missing/c"); err != ErrNotFound {
			t.Errorf("Mkdir through missing dir err = %v", err)
		}
		ents, err := fs.Readdir(p, "/a")
		if err != nil || len(ents) != 1 || ents[0].Name != "b" || ents[0].Mode != ModeDir {
			t.Errorf("Readdir /a = %+v, %v", ents, err)
		}
	})
}

func TestWriteReadDirect(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/data")
		payload := make([]byte, 20000) // spans direct blocks + offsets
		rand.New(rand.NewSource(1)).Read(payload)
		if err := fs.Write(p, ino, 100, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got, err := fs.Read(p, ino, 100, len(payload), true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("direct round trip failed: %v", err)
		}
		attr, _ := fs.Stat(p, ino)
		if attr.Size != 100+uint64(len(payload)) {
			t.Errorf("Size = %d", attr.Size)
		}
	})
}

func TestWriteReadBuffered(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/buf")
		payload := make([]byte, 12345)
		rand.New(rand.NewSource(2)).Read(payload)
		if err := fs.Write(p, ino, 0, payload, false); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		// Readable through the cache before any sync.
		got, err := fs.Read(p, ino, 0, len(payload), false)
		if err != nil || !bytes.Equal(got, payload) {
			t.Error("buffered read before sync failed")
		}
		fs.Sync(p)
		// And directly from the device after sync.
		got, err = fs.Read(p, ino, 0, len(payload), true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Error("direct read after sync differs")
		}
	})
}

func TestLargeFileIndirect(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/big")
		// Past direct (40 KB) and single-indirect (40KB + 4MB) ranges.
		offsets := []uint64{0, 39 * 1024, 2 * 1024 * 1024, 5 * 1024 * 1024}
		for i, off := range offsets {
			chunk := bytes.Repeat([]byte{byte(i + 1)}, 8192)
			if err := fs.Write(p, ino, off, chunk, true); err != nil {
				t.Errorf("Write at %d: %v", off, err)
				return
			}
		}
		for i, off := range offsets {
			got, err := fs.Read(p, ino, off, 8192, true)
			if err != nil || len(got) != 8192 || got[0] != byte(i+1) || got[8191] != byte(i+1) {
				t.Errorf("Read at %d failed: %v", off, err)
			}
		}
	})
}

func TestUnlinkAndSpaceReuse(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/f")
		fs.Write(p, ino, 0, make([]byte, 64*1024), true)
		free0 := fs.freeBlks
		if err := fs.Unlink(p, "/f"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if fs.freeBlks <= free0 {
			t.Errorf("blocks not reclaimed: %d -> %d", free0, fs.freeBlks)
		}
		if _, _, err := fs.Lookup(p, "/f"); err != ErrNotFound {
			t.Errorf("Lookup after unlink = %v", err)
		}
		// Non-empty directory refuses unlink.
		fs.Mkdir(p, "/d")
		fs.Create(p, "/d/x")
		if err := fs.Unlink(p, "/d"); err != ErrNotEmpty {
			t.Errorf("Unlink non-empty = %v", err)
		}
	})
}

func TestDirentOnDiskFormatRoundTrips(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		fs.Mkdir(p, "/dir")
		for i := 0; i < 50; i++ {
			fs.Create(p, fmt.Sprintf("/dir/file-%02d", i))
		}
		dirIno, _, _ := fs.Lookup(p, "/dir")
		onDisk := fs.loadDir(dirIno)
		inMem := fs.dirOf(dirIno).entries
		if len(onDisk) != len(inMem) {
			t.Errorf("on-disk %d entries, in-memory %d", len(onDisk), len(inMem))
			return
		}
		for name, ino := range inMem {
			if onDisk[name] != ino {
				t.Errorf("dirent %q: disk %d mem %d", name, onDisk[name], ino)
			}
		}
	})
}

func TestTruncate(t *testing.T) {
	m, fs := newTestFS(t)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/t")
		fs.Write(p, ino, 0, bytes.Repeat([]byte{9}, 32*1024), true)
		if err := fs.Truncate(p, ino); err != nil {
			t.Errorf("Truncate: %v", err)
		}
		attr, _ := fs.Stat(p, ino)
		if attr.Size != 0 {
			t.Errorf("Size after truncate = %d", attr.Size)
		}
		got, _ := fs.Read(p, ino, 0, 100, true)
		if len(got) != 0 {
			t.Errorf("Read after truncate = %d bytes", len(got))
		}
	})
}

func TestBufferedFasterThanDirectForHits(t *testing.T) {
	m, fs := newTestFS(t)
	var directTime, cachedTime sim.Time
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/hot")
		fs.Write(p, ino, 0, make([]byte, 128*1024), true)
		start := p.Now()
		for i := 0; i < 16; i++ {
			fs.Read(p, ino, uint64(i)*8192, 8192, true)
		}
		directTime = p.Now() - start
		// Warm the cache, then re-read.
		fs.Read(p, ino, 0, 8192, false)
		start = p.Now()
		for i := 0; i < 16; i++ {
			fs.Read(p, ino, uint64(i)*8192, 8192, false)
		}
		cachedTime = p.Now() - start
	})
	if cachedTime*5 >= directTime {
		t.Fatalf("page cache not effective: direct=%v cached=%v", directTime, cachedTime)
	}
	if fs.CacheHits.Total() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestContentionCostGrowsWithInflight(t *testing.T) {
	cfgM := model.Default()
	cfgM.SSD.CapacityMB = 128
	m := model.NewMachine(cfgM)
	dev := ssd.New(m.Eng, cfgM.SSD)
	fs := New(m, dev, DefaultConfig())
	var inos []uint64
	run(m, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ino, _ := fs.Create(p, fmt.Sprintf("/f%d", i))
			fs.Write(p, ino, 0, make([]byte, 8192), true)
			inos = append(inos, ino)
		}
	})
	m.HostCPU.Mark()
	busy0 := m.HostCPU.CoresUsed()
	_ = busy0
	for _, ino := range inos {
		ino := ino
		for k := 0; k < 8; k++ {
			m.Eng.Go("reader", func(p *sim.Proc) {
				for j := 0; j < 20; j++ {
					fs.Read(p, ino, 0, 8192, true)
				}
			})
		}
	}
	m.Eng.Run()
	if m.HostCPU.CoresUsed() <= 0 {
		t.Fatal("no host CPU charged")
	}
}

// Property: random write/read sequences against one file match a byte-slice
// model, for both direct and buffered modes.
func TestFileDataModelProperty(t *testing.T) {
	type wop struct {
		Off    uint16
		Len    uint8
		Direct bool
		Seed   uint8
	}
	f := func(ops []wop) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		cfgM := model.Default()
		cfgM.SSD.CapacityMB = 64
		m := model.NewMachine(cfgM)
		dev := ssd.New(m.Eng, cfgM.SSD)
		fs := New(m, dev, DefaultConfig())
		ok := true
		run(m, func(p *sim.Proc) {
			ino, _ := fs.Create(p, "/prop")
			modelBuf := make([]byte, 1<<17)
			maxEnd := 0
			for _, o := range ops {
				off := int(o.Off) % (1 << 16)
				n := int(o.Len) + 1
				chunk := bytes.Repeat([]byte{o.Seed}, n)
				if err := fs.Write(p, ino, uint64(off), chunk, o.Direct); err != nil {
					ok = false
					return
				}
				copy(modelBuf[off:], chunk)
				if off+n > maxEnd {
					maxEnd = off + n
				}
				// Verify a random window in the opposite mode.
				got, err := fs.Read(p, ino, uint64(off), n, !o.Direct)
				if err != nil || !bytes.Equal(got, modelBuf[off:off+n]) {
					ok = false
					return
				}
			}
			got, err := fs.Read(p, ino, 0, maxEnd, true)
			if err != nil {
				ok = false
				return
			}
			// Direct reads may miss pages still dirty in cache; sync first.
			fs.Sync(p)
			got, err = fs.Read(p, ino, 0, maxEnd, true)
			if err != nil || !bytes.Equal(got, modelBuf[:maxEnd]) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
