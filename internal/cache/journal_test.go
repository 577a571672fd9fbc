package cache

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/model"
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

// newWALCache is newTestCache (no flush daemon) with the default WAL on an
// SSD of its own, which it returns.
func newWALCache(t *testing.T) (*model.Machine, Layout, *Host, *Ctl, *ssd.Device) {
	t.Helper()
	m, l, h, c, _ := newTestCache(t, 64, 8, CtlConfig{})
	dev := ssd.New(m.Eng, ssd.DefaultConfig())
	c.SetWAL(wal.Open(m.Eng, dev, wal.DefaultConfig()))
	return m, l, h, c, dev
}

// crashReplay stands in for a crash after the run: the cache is lost, and the
// log is replayed into an empty backend, which it returns.
func crashReplay(t *testing.T, m *model.Machine, c *Ctl) *memBackend {
	t.Helper()
	c.WAL().Reopen()
	b := newMemBackend()
	m.Eng.Go("recover", func(p *sim.Proc) {
		if _, err := c.WAL().Recover(p, func(p *sim.Proc, r wal.Record) error {
			return b.WritePage(p, r.Ino, r.LPN, len(r.Data), r.Data)
		}); err != nil {
			t.Errorf("recover: %v", err)
		}
	})
	m.Eng.Run()
	return b
}

// syncIno runs c.SyncIno and checks it journaled want pages.
func syncIno(t *testing.T, p *sim.Proc, c *Ctl, ino uint64, want int) {
	t.Helper()
	if n, err := c.SyncIno(p, ino); err != nil || n != want {
		t.Errorf("fsync of %d: %d pages, err %v; want %d pages", ino, n, err, want)
	}
}

// statusCount counts the entries with status s.
func statusCount(m *model.Machine, l Layout, s uint32) int {
	n := 0
	for i := 0; i < l.Total; i++ {
		if ReadEntry(m.HostMem, l, i).Status == s {
			n++
		}
	}
	return n
}

// TestSecondFsyncCommitsNothing: an fsync journals two dirty pages and
// leaves them StatusLogged, still dirty. A second fsync with no write in
// between finds nothing to journal: it commits nothing, and the log device
// sees no write.
func TestSecondFsyncCommitsNothing(t *testing.T) {
	m, l, h, c, dev := newWALCache(t)
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 5, 0, page(0x51))
		h.WritePage(p, 5, 1, page(0x52))
		syncIno(t, p, c, 5, 2)
		if n := statusCount(m, l, StatusLogged); n != 2 {
			t.Errorf("%d entries logged after the fsync, want 2", n)
		}
		writes, bytes := dev.Writes.Total(), dev.BytesWrite.Total()
		syncIno(t, p, c, 5, 0)
		if dev.Writes.Total() != writes || dev.BytesWrite.Total() != bytes {
			t.Errorf("the second fsync wrote %d times, %d bytes to the log; want nothing",
				dev.Writes.Total()-writes, dev.BytesWrite.Total()-bytes)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if n := h.DirtyCount(); n != 2 {
		t.Errorf("%d dirty pages, want the 2 journaled ones", n)
	}
	quiesced(t, m, l, c)
}

// TestRewriteIsJournaledAgain: a page rewritten after its journal is dirty
// again (the host stores StatusDirty over StatusLogged), so the next fsync
// journals it — and only it — and replay leaves its newest bytes.
func TestRewriteIsJournaledAgain(t *testing.T) {
	m, l, h, c, _ := newWALCache(t)
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 5, 0, page(0x51))
		h.WritePage(p, 5, 1, page(0x52))
		syncIno(t, p, c, 5, 2)
		h.WritePage(p, 5, 1, page(0x53))
		if s := ReadEntry(m.HostMem, l, h.findEntry(5, 1)).Status; s != StatusDirty {
			t.Errorf("rewritten page has status %d, want dirty", s)
		}
		syncIno(t, p, c, 5, 1)
	})
	m.Eng.Run()
	quiesced(t, m, l, c)
	b := crashReplay(t, m, c)
	m.Eng.Shutdown()
	for lpn, want := range []byte{0x51, 0x53} {
		if !bytes.Equal(b.pages[[2]uint64{5, uint64(lpn)}], page(want)) {
			t.Errorf("replayed page %d is not 0x%x", lpn, want)
		}
	}
}

// TestTornCommitUnlogs: the first fsync's commit is torn at the WAL, so it
// fails and its snapshot must not count as logged: the page goes back to
// StatusDirty, and the retried fsync journals it again, which replay shows.
func TestTornCommitUnlogs(t *testing.T) {
	m, l, h, c, _ := newWALCache(t)
	c.WAL().SetFaults(fault.New(m.Eng, []fault.Rule{{Site: fault.SiteWAL, Kind: fault.KindWALTorn, Count: 1}}))
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 5, 0, page(0x5A))
		if _, err := c.SyncIno(p, 5); err == nil {
			t.Error("the torn commit reported success")
		}
		if s := ReadEntry(m.HostMem, l, h.findEntry(5, 0)).Status; s != StatusDirty {
			t.Errorf("after the torn commit the page has status %d, want dirty", s)
		}
		syncIno(t, p, c, 5, 1)
	})
	m.Eng.Run()
	quiesced(t, m, l, c)
	b := crashReplay(t, m, c)
	m.Eng.Shutdown()
	if !bytes.Equal(b.pages[[2]uint64{5, 0}], page(0x5A)) {
		t.Error("the retried fsync's page is not on the log")
	}
}

// TestCheckpointLeavesNoLoggedEntry: a checkpoint writes every dirty page
// back, journaled or not, before it drops the records: afterwards no entry
// is StatusLogged or StatusDirty, and an fsync has nothing to journal.
func TestCheckpointLeavesNoLoggedEntry(t *testing.T) {
	m, l, h, c, b := newTestCache(t, 64, 8, CtlConfig{})
	c.SetWAL(wal.Open(m.Eng, ssd.New(m.Eng, ssd.DefaultConfig()), wal.DefaultConfig()))
	m.Eng.Go("host", func(p *sim.Proc) {
		for lpn := uint64(0); lpn < 3; lpn++ {
			h.WritePage(p, 5, lpn, page(byte(lpn)))
		}
		syncIno(t, p, c, 5, 3)
		h.WritePage(p, 6, 0, page(0x60))
		if err := c.checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		syncIno(t, p, c, 5, 0)
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if n := statusCount(m, l, StatusLogged); n != 0 {
		t.Errorf("%d entries still logged after the checkpoint", n)
	}
	if n := h.DirtyCount(); n != 0 || b.writes != 4 {
		t.Errorf("after the checkpoint: %d dirty pages, %d write-backs; want 0, 4", n, b.writes)
	}
	quiesced(t, m, l, c)
}

// TestConcurrentFsyncsOfOneInodeKeepLogOrder: fsync A snapshots page P (v1)
// and then waits for page Q, whose lock a host thread holds for 100 µs. P is
// rewritten (v2) and fsync B of the same inode starts while A waits. B's
// record of P must land after A's, or replay, which applies records in log
// order, ends at v1 although B acknowledged v2. Which of the two wins Q once
// the host lets go depends on where their polls fall, so B's start sweeps a
// range: in it, unserialized passes land in both orders.
func TestConcurrentFsyncsOfOneInodeKeepLogOrder(t *testing.T) {
	const ino, lpnP, lpnQ = 5, 1, 0
	for start := 21 * time.Microsecond; start < 100*time.Microsecond; start += 3 * time.Microsecond {
		m, l, h, c, _ := newWALCache(t)
		m.Eng.Go("host", func(p *sim.Proc) {
			h.WritePage(p, ino, lpnQ, page(0x0F))
			h.WritePage(p, ino, lpnP, page(0x01))
		})
		m.Eng.Run()
		q := h.findEntry(ino, lpnQ)
		m.Eng.Go("holder", func(p *sim.Proc) {
			h.lockEntry(p, q, LockWrite)
			p.Sleep(100 * time.Microsecond)
			h.unlock(q)
		})
		m.Eng.Go("fsync-a", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			syncIno(t, p, c, ino, 2)
		})
		m.Eng.Go("rewrite", func(p *sim.Proc) {
			p.Sleep(20 * time.Microsecond)
			h.WritePage(p, ino, lpnP, page(0x02))
		})
		m.Eng.Go("fsync-b", func(p *sim.Proc) {
			p.Sleep(start)
			if _, err := c.SyncIno(p, ino); err != nil {
				t.Errorf("fsync B: %v", err)
			}
		})
		m.Eng.Run()
		quiesced(t, m, l, c)
		b := crashReplay(t, m, c)
		m.Eng.Shutdown()
		if !bytes.Equal(b.pages[[2]uint64{ino, lpnP}], page(0x02)) {
			t.Errorf("fsync B started at %v: replay did not leave P at B's bytes", start)
		}
	}
}

// TestGenerationBumpMakesLogStale: a generation bump makes replay skip the
// inode's older page records, so a page journaled before it is dirty with no
// record that counts: the next fsync journals it again under the new
// generation, and replay keeps it.
func TestGenerationBumpMakesLogStale(t *testing.T) {
	m, l, h, c, _ := newWALCache(t)
	m.Eng.Go("host", func(p *sim.Proc) {
		h.WritePage(p, 5, 0, page(0x5B))
		syncIno(t, p, c, 5, 1)
		if err := c.BumpGen(p, 5); err != nil {
			t.Errorf("bump: %v", err)
		}
		syncIno(t, p, c, 5, 1)
	})
	m.Eng.Run()
	quiesced(t, m, l, c)
	b := crashReplay(t, m, c)
	m.Eng.Shutdown()
	if !bytes.Equal(b.pages[[2]uint64{5, 0}], page(0x5B)) {
		t.Error("the page journaled before the bump is lost at replay")
	}
}
