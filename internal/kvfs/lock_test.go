package kvfs

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/sim"
)

// The inode lock's two modes: a whole-block overwrite inside EOF holds it
// shared, every other mutation exclusive. The races below start their procs
// together (or, for the truncate, at offsets across its KV ops), so the KV
// ops of the two writes interleave unless the lock orders them.

// bigFile creates /f holding blocks whole blocks of fill.
func bigFile(t *testing.T, blocks int, fill byte) (*FS, func(...func(p *sim.Proc)), uint64, func()) {
	t.Helper()
	m, cluster, fs := newTestFS(t)
	var ino uint64
	run(m, func(p *sim.Proc) {
		ino, _ = fs.Create(p, "/f")
		if err := fs.Write(p, ino, 0, bytes.Repeat([]byte{fill}, blocks*BlockSize)); err != nil {
			t.Errorf("prefill: %v", err)
		}
	})
	race := func(fns ...func(p *sim.Proc)) {
		for _, fn := range fns {
			m.Eng.Go("racer", fn)
		}
		m.Eng.Run()
	}
	fsck := func() {
		if r := Fsck(cluster); !r.OK() {
			t.Errorf("fsck: %v", r.Problems)
		}
	}
	return fs, race, ino, fsck
}

func writer(t *testing.T, fs *FS, ino, off uint64, data []byte) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		if err := fs.Write(p, ino, off, data); err != nil {
			t.Errorf("Write(%d, %d bytes): %v", off, len(data), err)
		}
	}
}

func readAll(t *testing.T, fs *FS, race func(...func(p *sim.Proc)), ino uint64, n int) []byte {
	var got []byte
	race(func(p *sim.Proc) {
		var err error
		if got, err = fs.Read(p, ino, 0, n); err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	return got
}

// TestHalfBlockWritersBothSurvive: two read-modify-writes of the two halves
// of one block each keep the other's half.
func TestHalfBlockWritersBothSurvive(t *testing.T) {
	fs, race, ino, fsck := bigFile(t, 2, 0)
	half := BlockSize / 2
	race(writer(t, fs, ino, 0, bytes.Repeat([]byte{0xA1}, half)),
		writer(t, fs, ino, uint64(half), bytes.Repeat([]byte{0xB2}, half)))
	got := readAll(t, fs, race, ino, BlockSize)
	want := append(bytes.Repeat([]byte{0xA1}, half), bytes.Repeat([]byte{0xB2}, half)...)
	if !bytes.Equal(got, want) {
		t.Errorf("block 0 holds %x.. %x.., want a1.. b2..", got[:4], got[half:half+4])
	}
	fsck()
}

// TestOverwriteRacingPartialWriteIsSerial: a whole-block overwrite and a
// partial write of the same block land as if one ran after the other.
func TestOverwriteRacingPartialWriteIsSerial(t *testing.T) {
	fs, race, ino, fsck := bigFile(t, 2, 0)
	whole := bytes.Repeat([]byte{0xCC}, BlockSize)
	patch := bytes.Repeat([]byte{0xDD}, 100)
	race(writer(t, fs, ino, 4000, patch), writer(t, fs, ino, 0, whole))
	got := readAll(t, fs, race, ino, BlockSize)
	patched := bytes.Clone(whole)
	copy(patched[4000:], patch)
	if !bytes.Equal(got, whole) && !bytes.Equal(got, patched) {
		t.Errorf("block 0 = %x at the patch, %x before it: neither serial order", got[4000:4004], got[:4])
	}
	fsck()
}

// TestTruncateRacingOverwrite: a whole-file overwrite issued at any point
// of a Truncate's block deletes leaves the size either 0 (truncate last) or
// the overwrite's end (truncate first), with the blocks to match.
func TestTruncateRacingOverwrite(t *testing.T) {
	for delay := time.Duration(0); delay <= 200*time.Microsecond; delay += 25 * time.Microsecond {
		fs, race, ino, fsck := bigFile(t, 3, 0x11)
		over := writer(t, fs, ino, 0, bytes.Repeat([]byte{0x22}, 3*BlockSize))
		race(func(p *sim.Proc) {
			if err := fs.Truncate(p, ino); err != nil {
				t.Errorf("Truncate: %v", err)
			}
		}, func(p *sim.Proc) { p.Sleep(delay); over(p) })
		var a Attr
		race(func(p *sim.Proc) { a, _ = fs.Getattr(p, ino) })
		if a.Size != 0 && a.Size != 3*BlockSize {
			t.Errorf("overwrite %v into the truncate: size %d, want 0 or %d", delay, a.Size, 3*BlockSize)
		}
		fsck()
	}
}

// TestOverwritesOfOneFileRunInParallel: eight procs each overwriting a
// distinct block of one file finish about when one overwrite alone would,
// not eight times later.
func TestOverwritesOfOneFileRunInParallel(t *testing.T) {
	const procs = 8
	fs, race, ino, fsck := bigFile(t, procs, 0)
	block := func(i int) func(p *sim.Proc) {
		return writer(t, fs, ino, uint64(i*BlockSize), bytes.Repeat([]byte{byte(i + 1)}, BlockSize))
	}
	var start, one, all sim.Time
	race(func(p *sim.Proc) { start = p.Now(); block(0)(p); one = p.Now() - start })
	fns := make([]func(p *sim.Proc), procs)
	for i := range fns {
		fns[i] = func(p *sim.Proc) {
			start = p.Now() // every proc starts at the same instant
			block(i)(p)
			all = max(all, p.Now()-start)
		}
	}
	race(fns...)
	if all*2 > one*3 {
		t.Errorf("%d concurrent overwrites took %v, one alone %v: over 1.5x", procs, all, one)
	}
	got := readAll(t, fs, race, ino, procs*BlockSize)
	for i := 0; i < procs; i++ {
		if got[i*BlockSize] != byte(i+1) || got[(i+1)*BlockSize-1] != byte(i+1) {
			t.Errorf("block %d holds %#x, want %#x", i, got[i*BlockSize], i+1)
		}
	}
	fsck()
}
