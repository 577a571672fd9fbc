package wal

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dpc/internal/sim"
	"dpc/internal/ssd"
)

// newTestLog builds a log over a fresh device. size 0 means the default
// geometry; a small explicit size makes the wraparound tests cheap.
func newTestLog(size int64) (*sim.Engine, *ssd.Device, *Log) {
	eng := sim.NewEngine(1)
	dev := ssd.New(eng, ssd.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Size = size
	return eng, dev, Open(eng, dev, cfg)
}

// drive runs fn on a fresh proc and pumps the engine until it returns.
func drive(eng *sim.Engine, fn func(p *sim.Proc)) {
	done := false
	eng.Go("wal-test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	eng.Run()
	if !done {
		panic("wal test proc stalled")
	}
}

// collect returns an apply func that appends every replayed record to out.
func collect(out *[]Record) func(p *sim.Proc, r Record) error {
	return func(p *sim.Proc, r Record) error {
		*out = append(*out, r)
		return nil
	}
}

func page(b byte) []byte { return bytes.Repeat([]byte{b}, 8192) }

func TestRecoverEmptyLog(t *testing.T) {
	eng, _, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		var got []Record
		st, err := l.Recover(p, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 0 || st.Replayed != 0 || st.TornTails != 0 || len(got) != 0 {
			t.Fatalf("empty log recovery not empty: %+v", st)
		}
		if st.Duration <= 0 {
			t.Fatalf("recovery duration not stamped: %v", st.Duration)
		}
	})
}

// TestRecoverFormatsBlankDevice: a device with no recognizable superblock
// (crash before the very first superblock barrier) is formatted fresh.
func TestRecoverFormatsBlankDevice(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := ssd.New(eng, ssd.DefaultConfig())
	cfg := DefaultConfig()
	l := Open(eng, dev, cfg)
	dev.WriteRaw(0, make([]byte, ssd.BlockSize)) // wipe the superblock
	l.Reopen()
	drive(eng, func(p *sim.Proc) {
		st, err := l.Recover(p, collect(new([]Record)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 0 {
			t.Fatalf("blank device yielded records: %+v", st)
		}
		if l.epoch != 1 {
			t.Fatalf("epoch after fresh format = %d, want 1", l.epoch)
		}
		// The freshly formatted log must accept commits immediately.
		if err := l.Commit(p, []Record{{Kind: RecPage, Ino: 1, LPN: 0, Gen: 1, Data: page('a')}}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCommitRecoverRoundTrip(t *testing.T) {
	eng, _, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		recs := []Record{
			{Kind: RecPage, Ino: 7, LPN: 0, Gen: 1, Data: page('a')},
			{Kind: RecPage, Ino: 7, LPN: 1, Gen: 1, Data: page('b')},
			{Kind: RecGen, Ino: 9, Gen: 2},
		}
		if err := l.Commit(p, recs); err != nil {
			t.Fatal(err)
		}
		l.Reopen() // simulate restart: head forgotten, scan required
		var got []Record
		st, err := l.Recover(p, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 3 || st.Replayed != 2 || st.GenRecs != 1 || st.TornTails != 0 {
			t.Fatalf("stats %+v", st)
		}
		for i, want := range recs[:2] {
			if got[i].Ino != want.Ino || got[i].LPN != want.LPN || !bytes.Equal(got[i].Data, want.Data) {
				t.Fatalf("replayed record %d mismatch", i)
			}
		}
	})
}

// TestCommitBeforeRecoverPanics: appending blind to an adopted log would
// overwrite acknowledged records; the API forbids it.
func TestCommitBeforeRecoverPanics(t *testing.T) {
	eng, _, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		l.Reopen()
		defer func() {
			if recover() == nil {
				t.Error("Commit on an unscanned log did not panic")
			}
		}()
		_ = l.Commit(p, []Record{{Kind: RecGen, Ino: 1, Gen: 1}})
	})
}

// TestTornTailDetection: a record whose bytes were half-written when power
// failed must end the scan as a torn tail, preserving the prefix.
func TestTornTailDetection(t *testing.T) {
	eng, dev, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		if err := l.Commit(p, []Record{{Kind: RecPage, Ino: 1, LPN: 0, Gen: 1, Data: page('a')}}); err != nil {
			t.Fatal(err)
		}
		second := l.head
		if err := l.Commit(p, []Record{{Kind: RecPage, Ino: 1, LPN: 1, Gen: 1, Data: page('b')}}); err != nil {
			t.Fatal(err)
		}
		// Tear the second record: flip one payload byte on the device, as a
		// power failure that lost one flash block of the append would.
		off := l.dataBase() + second + recHdrSize + 100
		raw := dev.ReadRaw(off, 1)
		dev.WriteRaw(off, []byte{raw[0] ^ 0xff})

		l.Reopen()
		var got []Record
		st, err := l.Recover(p, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if st.TornTails != 1 {
			t.Fatalf("torn tail not detected: %+v", st)
		}
		if st.Replayed != 1 || len(got) != 1 || got[0].LPN != 0 {
			t.Fatalf("valid prefix not preserved: %+v", st)
		}
		// The head sits at the end of the valid prefix: the next commit
		// overwrites the torn bytes, and a second recovery sees it whole.
		if l.head != second {
			t.Fatalf("head = %d, want %d", l.head, second)
		}
		if err := l.Commit(p, []Record{{Kind: RecPage, Ino: 1, LPN: 2, Gen: 1, Data: page('c')}}); err != nil {
			t.Fatal(err)
		}
		l.Reopen()
		got = nil
		st, err = l.Recover(p, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if st.TornTails != 0 || st.Replayed != 2 || got[1].LPN != 2 {
			t.Fatalf("post-overwrite recovery: %+v", st)
		}
	})
}

// TestCorruptFirstRecord: damage at the very start of the log means nothing
// replays — but recovery still succeeds (an unacknowledgeable tail, not an
// error).
func TestCorruptFirstRecord(t *testing.T) {
	eng, dev, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		if err := l.Commit(p, []Record{{Kind: RecPage, Ino: 1, LPN: 0, Gen: 1, Data: page('a')}}); err != nil {
			t.Fatal(err)
		}
		raw := dev.ReadRaw(l.dataBase()+recHdrSize, 1)
		dev.WriteRaw(l.dataBase()+recHdrSize, []byte{raw[0] ^ 0x01})
		l.Reopen()
		st, err := l.Recover(p, collect(new([]Record)))
		if err != nil {
			t.Fatal(err)
		}
		if st.TornTails != 1 || st.Replayed != 0 || st.Records != 0 {
			t.Fatalf("stats %+v", st)
		}
	})
}

// TestGenerationFilter: page records older than the inode's final RecGen in
// the log are stale and skipped; other inodes are untouched.
func TestGenerationFilter(t *testing.T) {
	eng, _, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		err := l.Commit(p, []Record{
			{Kind: RecPage, Ino: 5, LPN: 0, Gen: 1, Data: page('a')}, // stale: gen 3 follows
			{Kind: RecPage, Ino: 6, LPN: 0, Gen: 1, Data: page('b')}, // other inode: live
			{Kind: RecGen, Ino: 5, Gen: 3},                           // truncate of ino 5
			{Kind: RecPage, Ino: 5, LPN: 1, Gen: 3, Data: page('c')}, // post-truncate: live
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Reopen()
		var got []Record
		st, err := l.Recover(p, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if st.SkippedStale != 1 || st.Replayed != 2 || st.GenRecs != 1 {
			t.Fatalf("stats %+v", st)
		}
		if len(got) != 2 || got[0].Ino != 6 || got[1].Ino != 5 || got[1].Gen != 3 {
			t.Fatalf("wrong live set: %+v", got)
		}
	})
}

// TestIdempotentReplay: recovering the same image twice (a crash during the
// first recovery, before its checkpoint) applies the identical record
// sequence both times.
func TestIdempotentReplay(t *testing.T) {
	eng, _, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		err := l.Commit(p, []Record{
			{Kind: RecPage, Ino: 1, LPN: 0, Gen: 1, Data: page('x')},
			{Kind: RecGen, Ino: 2, Gen: 4},
			{Kind: RecPage, Ino: 1, LPN: 3, Gen: 1, Data: page('y')},
		})
		if err != nil {
			t.Fatal(err)
		}
		var first, second []Record
		l.Reopen()
		st1, err := l.Recover(p, collect(&first))
		if err != nil {
			t.Fatal(err)
		}
		l.Reopen() // double crash: recovery itself was interrupted, run again
		st2, err := l.Recover(p, collect(&second))
		if err != nil {
			t.Fatal(err)
		}
		if st1.Records != st2.Records || st1.Replayed != st2.Replayed || st1.SkippedStale != st2.SkippedStale {
			t.Fatalf("replay not idempotent: %+v vs %+v", st1, st2)
		}
		if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
			t.Fatal("replayed record sequences differ across recoveries")
		}
	})
}

// TestCheckpointWraparound: a full region returns ErrFull; after Checkpoint
// the head resets, the epoch bumps, and the old records become invisible
// residue overwritten by new appends.
func TestCheckpointWraparound(t *testing.T) {
	// 5 blocks: 1 superblock + 16 KiB of append region. Each 8 KiB-payload
	// record occupies 8232 bytes, so exactly one fits at a time.
	eng, _, l := newTestLog(5 * ssd.BlockSize)
	drive(eng, func(p *sim.Proc) {
		rec := func(b byte) []Record {
			return []Record{{Kind: RecPage, Ino: 1, LPN: uint64(b), Gen: 1, Data: page(b)}}
		}
		if err := l.Commit(p, rec(1)); err != nil {
			t.Fatal(err)
		}
		if !l.NeedCheckpoint(RecordSize(8192)) {
			t.Fatal("NeedCheckpoint = false with a full region")
		}
		if err := l.Commit(p, rec(2)); err != ErrFull {
			t.Fatalf("commit on full region: %v, want ErrFull", err)
		}
		epoch := l.epoch
		if err := l.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if l.epoch != epoch+1 || l.head != 0 {
			t.Fatalf("checkpoint left epoch=%d head=%d", l.epoch, l.head)
		}
		// Recovery now sees only post-checkpoint appends.
		if err := l.Commit(p, rec(3)); err != nil {
			t.Fatal(err)
		}
		l.Reopen()
		var got []Record
		st, err := l.Recover(p, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if st.Replayed != 1 || got[0].LPN != 3 || st.TornTails != 0 {
			t.Fatalf("post-checkpoint recovery: %+v", st)
		}
	})
}

// TestCheckpointResidueIsCleanEnd: records from the previous epoch that were
// never overwritten read as the clean end of the log, not as torn tails.
func TestCheckpointResidueIsCleanEnd(t *testing.T) {
	eng, _, l := newTestLog(0)
	drive(eng, func(p *sim.Proc) {
		if err := l.Commit(p, []Record{{Kind: RecPage, Ino: 1, LPN: 0, Gen: 1, Data: page('a')}}); err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		l.Reopen()
		st, err := l.Recover(p, collect(new([]Record)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != 0 || st.TornTails != 0 {
			t.Fatalf("stale-epoch residue misread: %+v", st)
		}
	})
}

// TestGroupCommitAmortizesBarriers: N concurrent commits inside one group
// window cost a single device write + barrier, not N.
func TestGroupCommitAmortizesBarriers(t *testing.T) {
	eng, dev, l := newTestLog(0)
	const n = 8
	done := 0
	before := dev.Barriers.Total()
	for i := 0; i < n; i++ {
		ino := uint64(i)
		eng.Go("committer", func(p *sim.Proc) {
			// All arrivals land inside the leader's 20µs group window.
			p.Sleep(time.Duration(ino) * time.Microsecond)
			if err := l.Commit(p, []Record{{Kind: RecPage, Ino: ino, LPN: 0, Gen: 1, Data: page(byte(ino))}}); err != nil {
				t.Errorf("commit %d: %v", ino, err)
			}
			done++
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("%d/%d commits finished", done, n)
	}
	if got := dev.Barriers.Total() - before; got != 1 {
		t.Fatalf("%d barriers for %d concurrent fsyncs, want 1", got, n)
	}
	// All n records are on the log and recoverable.
	drive(eng, func(p *sim.Proc) {
		l.Reopen()
		st, err := l.Recover(p, collect(new([]Record)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Replayed != n {
			t.Fatalf("replayed %d, want %d", st.Replayed, n)
		}
	})
}

// TestZeroGroupWindow: GroupWindow 0 still commits correctly, one barrier
// per group (each commit its own group under sequential callers).
func TestZeroGroupWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := ssd.New(eng, ssd.DefaultConfig())
	cfg := DefaultConfig()
	cfg.GroupWindow = 0
	l := Open(eng, dev, cfg)
	drive(eng, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := l.Commit(p, []Record{{Kind: RecGen, Ino: uint64(i), Gen: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		l.Reopen()
		st, err := l.Recover(p, collect(new([]Record)))
		if err != nil {
			t.Fatal(err)
		}
		if st.GenRecs != 3 {
			t.Fatalf("stats %+v", st)
		}
	})
}
