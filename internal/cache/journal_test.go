package cache

import (
	"testing"
	"time"

	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/wal"
)

// TestBumpGenCheckpointsAFullLog: generation records fill a two-block log
// until a commit finds it full. BumpGen then checkpoints — which first settles
// the dirty page in the cache into the backend — and commits again: every
// bump succeeds, and the generation counts all of them.
func TestBumpGenCheckpointsAFullLog(t *testing.T) {
	m, l, h, c, b := newTestCache(t, 64, 8, CtlConfig{})
	c.SetWAL(wal.Open(m.Eng, ssd.New(m.Eng, ssd.DefaultConfig()), wal.Config{Size: 3 * ssd.BlockSize}))
	bumps := 2*ssd.BlockSize/wal.RecordSize(0) + 5 // the superblock takes the first block
	m.Eng.Go("meta", func(p *sim.Proc) {
		if !h.WritePage(p, 9, 0, page(0x9A)) {
			t.Error("WritePage failed")
			return
		}
		for i := 0; i < bumps; i++ {
			if err := c.BumpGen(p, 7); err != nil {
				t.Errorf("bump %d: %v", i, err)
				return
			}
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if c.ckptSeq == 0 {
		t.Fatalf("%d generation records never filled the log", bumps)
	}
	if got := c.walGens[7]; got != uint64(bumps) {
		t.Errorf("generation %d after %d bumps", got, bumps)
	}
	if h.DirtyCount() != 0 || b.writes != 1 {
		t.Errorf("after the checkpoint: %d dirty pages, %d backend writes; want 0, 1", h.DirtyCount(), b.writes)
	}
	quiesced(t, m, l, c)
}

// TestBumpGenWaitsOutCheckpoint: a checkpoint is settling a dirty page through
// a 1 ms backend. A bump issued while it runs waits for it before committing;
// a bump whose commit was still in its group window when it began commits
// again after it (the checkpoint may have dropped the first record). Both
// return only once the checkpoint is over, each with one generation.
func TestBumpGenWaitsOutCheckpoint(t *testing.T) {
	m, l, h, c, _ := newTestCache(t, 64, 8, CtlConfig{})
	slow := &slowBackend{memBackend: *newMemBackend(), delay: time.Millisecond}
	c.SetBackend(slow)
	c.SetWAL(wal.Open(m.Eng, ssd.New(m.Eng, ssd.DefaultConfig()), wal.DefaultConfig()))
	m.Eng.Go("host", func(p *sim.Proc) { h.WritePage(p, 9, 0, page(0x9A)) })
	m.Eng.Run()

	var ckptEnd, inWindow, during sim.Time
	m.Eng.Go("in-window", func(p *sim.Proc) {
		if err := c.BumpGen(p, 7); err != nil {
			t.Errorf("bump in the group window: %v", err)
		}
		inWindow = p.Now()
	})
	m.Eng.Go("checkpoint", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond) // inside the bump's 20 µs group window
		if err := c.checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		ckptEnd = p.Now()
	})
	m.Eng.Go("during", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		if !c.ckpting {
			t.Error("the checkpoint was not running 100 µs in")
		}
		if err := c.BumpGen(p, 8); err != nil {
			t.Errorf("bump during the checkpoint: %v", err)
		}
		during = p.Now()
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if slow.writes != 1 {
		t.Fatalf("checkpoint wrote %d pages back, want 1", slow.writes)
	}
	if inWindow <= ckptEnd || during <= ckptEnd {
		t.Errorf("bumps returned at %v and %v, the checkpoint ended at %v: want both after it",
			time.Duration(inWindow), time.Duration(during), time.Duration(ckptEnd))
	}
	if c.walGens[7] != 1 || c.walGens[8] != 1 {
		t.Errorf("generations %d and %d, want 1 and 1", c.walGens[7], c.walGens[8])
	}
	quiesced(t, m, l, c)
}
