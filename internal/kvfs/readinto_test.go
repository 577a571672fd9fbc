package kvfs

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"dpc/internal/sim"
	"dpc/internal/xform"
)

// readIntoWorld builds a big file (five full blocks and a 1000-byte tail,
// block 2 deleted from the store so that it reads as a hole) and a small
// file, then plays the same reads through read. It returns what they
// returned and the virtual instant the last one finished.
func readIntoWorld(t *testing.T, xf xform.Transform, read func(p *sim.Proc, fs *FS, ino, off uint64, n int) ([]byte, error)) ([][]byte, sim.Time) {
	t.Helper()
	m, cluster, fs := newTestFS(t)
	fs.SetTransform(xf)
	const bigSize = 5*BlockSize + 1000
	body := make([]byte, bigSize)
	rand.New(rand.NewSource(7)).Read(body)
	var out [][]byte
	var end sim.Time
	run(m, func(p *sim.Proc) {
		big, _ := fs.Create(p, "/big")
		small, _ := fs.Create(p, "/small")
		if err := fs.Write(p, big, 0, body); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, small, 0, body[:3000]); err != nil {
			t.Fatal(err)
		}
		hole := BigKey(big, 2)
		cluster.StoreOf(cluster.ShardFor(hole)).Delete([]byte(hole))
		for _, c := range []struct {
			ino    uint64
			off, n int
		}{
			{big, 0, BlockSize},                     // aligned
			{big, 100, 500},                         // unaligned, inside one block
			{big, BlockSize - 192, 9000},            // crosses two block boundaries
			{big, bigSize - 300, 4096},              // clamped at EOF
			{big, 2*BlockSize - 10, BlockSize + 20}, // data | hole | data
			{big, 5 * BlockSize, BlockSize},         // the short tail block
			{big, 0, bigSize + 77},                  // the whole file and more
			{big, bigSize, 10},                      // at EOF
			{small, 0, 3000},
			{small, 100, 5000},
			{small, 3000, 10},
		} {
			data, err := read(p, fs, c.ino, uint64(c.off), c.n)
			if err != nil {
				t.Fatalf("read %+v: %v", c, err)
			}
			out = append(out, data)
		}
		end = p.Now()
	})
	return out, end
}

// ReadInto into a poisoned destination returns the bytes Read returns, holes
// and short blocks zeroed, and costs the same virtual time.
func TestReadIntoEqualsRead(t *testing.T) {
	viaRead := func(p *sim.Proc, fs *FS, ino, off uint64, n int) ([]byte, error) {
		return fs.Read(p, ino, off, n)
	}
	viaInto := func(p *sim.Proc, fs *FS, ino, off uint64, n int) ([]byte, error) {
		dst := bytes.Repeat([]byte{0xDB}, n+8)
		got, err := fs.ReadInto(p, ino, off, dst[:n])
		if !bytes.Equal(dst[n:], bytes.Repeat([]byte{0xDB}, 8)) {
			t.Errorf("ReadInto(off %d, n %d) wrote past its destination", off, n)
		}
		return dst[:got], err
	}
	for name, xf := range map[string]xform.Transform{"plain": nil, "lzss+dif": xform.Chain{xform.LZSS{}, xform.DIF{}}} {
		want, wantEnd := readIntoWorld(t, xf, viaRead)
		got, gotEnd := readIntoWorld(t, xf, viaInto)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: read %d: ReadInto returned %d bytes, Read %d, or different contents", name, i, len(got[i]), len(want[i]))
			}
		}
		if hole := want[4]; !bytes.Equal(hole[10:10+BlockSize], make([]byte, BlockSize)) {
			t.Errorf("%s: the deleted block did not read as zeros", name)
		}
		if gotEnd != wantEnd {
			t.Errorf("%s: ReadInto run ended at %v, Read run at %v", name, gotEnd, wantEnd)
		}
	}
}

// A range read hands out the pages of one buffer; the tail page is padded
// with zeros up to the page size.
func TestReadPageRangeTailPadded(t *testing.T) {
	m, _, fs := newTestFS(t)
	const pageSize, size = 4096, 2*4096 + 100
	body := bytes.Repeat([]byte{0x77}, size)
	run(m, func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/f")
		if err := fs.Write(p, ino, 0, body); err != nil {
			t.Fatal(err)
		}
		pages := PageBackend{FS: fs}.ReadPageRange(p, ino, 0, 8, pageSize)
		if len(pages) != 3 {
			t.Fatalf("%d pages, want 3", len(pages))
		}
		want := append(append([]byte(nil), body...), make([]byte, 3*pageSize-size)...)
		for i, pg := range pages {
			if !bytes.Equal(pg, want[i*pageSize:(i+1)*pageSize]) {
				t.Errorf("page %d differs", i)
			}
		}
		if pg, ok := (PageBackend{FS: fs}).ReadPage(p, ino, 2, pageSize); !ok || !bytes.Equal(pg, pages[2]) {
			t.Error("ReadPage of the tail differs from the range read")
		}
		if _, ok := (PageBackend{FS: fs}).ReadPage(p, ino, 3, pageSize); ok {
			t.Error("ReadPage past EOF found a page")
		}
	})
}

// TestBlockIOZeroAllocs: an aligned 8 KiB Write plus an 8 KiB ReadInto of a
// big file allocate no block-sized buffer in steady state — the shard
// overwrites its value in place and fills the caller's destination. What is
// left is the fixed bookkeeping of two KV round trips: bounded, not zero.
func TestBlockIOZeroAllocs(t *testing.T) {
	m, _, fs := newTestFS(t)
	block, dst := bytes.Repeat([]byte{0x3C}, BlockSize), make([]byte, BlockSize)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/f")
		if err := fs.Write(p, ino, 0, bytes.Repeat(block, 4)); err != nil {
			t.Fatal(err)
		}
	})
	kick := sim.NewCond(m.Eng, "step")
	m.Eng.Go("io", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			if err := fs.Write(p, ino, BlockSize, block); err != nil {
				t.Error(err)
			}
			if n, err := fs.ReadInto(p, ino, BlockSize, dst); n != BlockSize || err != nil {
				t.Errorf("ReadInto = %d, %v", n, err)
			}
		}
	})
	step := func() { kick.Signal(); m.Eng.Run() }
	for i := 0; i < 8; i++ {
		step()
	}
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / rounds; b >= 2048 {
		t.Fatalf("8K write + read: %d bytes allocated per round, want < 2048 (a block-sized buffer is back)", b)
	}
	if !bytes.Equal(dst, block) {
		t.Fatal("read-back mismatch")
	}
}
