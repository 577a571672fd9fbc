package nvmefs

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// newFaultDriver builds a single-queue driver with an attached injector and
// a handler that counts its own invocations (for dedup assertions).
func newFaultDriver(t *testing.T, cfg Config, rules []fault.Rule) (*model.Machine, *Driver, *fault.Injector, *int) {
	t.Helper()
	m := newTestMachine(t, model.Default())
	vc := newVirtualClient()
	execs := new(int)
	d := NewDriver(m, cfg, func(p *sim.Proc, req Request) Response {
		*execs++
		return vc.handle(p, req)
	})
	in := fault.New(m.Eng, rules)
	d.SetFaults(in)
	return m, d, in, execs
}

func faultCfg() Config {
	return Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 64 * 1024, RHCap: 64}
}

func TestDroppedCompletionTimesOutAndRetries(t *testing.T) {
	m, d, _, execs := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 1, Count: 1},
	})
	payload := []byte("retry survives a lost CQE")
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: payload})
		if !w.OK() {
			t.Errorf("write under dropped completion = %+v", w)
		}
		r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: header(1, 0), ReadLen: 4096, RHLen: 1})
		if !r.OK() || !bytes.Equal(r.Data, payload) {
			t.Errorf("read-back = %+v", r)
		}
	})
	m.Eng.Run()
	if d.Timeouts != 1 || d.Retries != 1 || d.DroppedCompletions != 1 {
		t.Fatalf("timeouts=%d retries=%d dropped=%d, want 1/1/1", d.Timeouts, d.Retries, d.DroppedCompletions)
	}
	// The write executed once and its retry was answered from the executed-
	// response cache; the read executed once. Total handler runs: 2.
	if *execs != 2 || d.DedupHits != 1 {
		t.Fatalf("handler runs=%d dedup=%d, want 2 runs with 1 dedup hit", *execs, d.DedupHits)
	}
}

func TestRetryBudgetExhaustedReturnsTimeout(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion}, // every completion, forever
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: []byte("doomed")})
		if w.Status != nvme.StatusTimeout {
			t.Errorf("status = %s, want TIMEOUT", nvme.StatusString(w.Status))
		}
	})
	m.Eng.Run()
	// Every attempt times out: maxRetries resubmissions after the first, and
	// the resetThreshold-th consecutive timeout resets the controller once.
	if d.Retries != maxRetries || d.Timeouts != maxRetries+1 || d.Resets != 1 {
		t.Fatalf("retries=%d timeouts=%d resets=%d, want %d / %d / 1",
			d.Retries, d.Timeouts, d.Resets, maxRetries, maxRetries+1)
	}
}

func TestControllerResetResubmitsInflight(t *testing.T) {
	// One long freeze: every in-flight command blows its deadline, the
	// consecutive-timeout streak trips a controller reset, and the retries
	// succeed once the queue thaws. The first command completes before the
	// freeze; the resetThreshold behind it fill the queue's buffer slots.
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteTGT, Kind: fault.KindFreeze, FromOp: 2, Count: 1, Delay: 8 * time.Millisecond},
	})
	const n = 1 + resetThreshold
	oks := 0
	for i := 0; i < n; i++ {
		i := i
		m.Eng.Go("app", func(p *sim.Proc) {
			w := d.Submit(p, 0, Submission{
				FileOp: nvme.FileOpWrite, Header: header(uint64(i), 0),
				Payload: []byte{byte(i), 1, 2, 3},
			})
			if w.OK() {
				oks++
			} else {
				t.Errorf("cmd %d = %s", i, nvme.StatusString(w.Status))
			}
		})
	}
	m.Eng.Run()
	if oks != n {
		t.Fatalf("oks = %d, want %d", oks, n)
	}
	if d.Resets < 1 {
		t.Fatalf("resets = %d, want >= 1", d.Resets)
	}
	// After the dust settles the queue must be fully reusable.
	m.Eng.Go("after", func(p *sim.Proc) {
		r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: header(1, 0), ReadLen: 4096, RHLen: 1})
		if !r.OK() || !bytes.Equal(r.Data, []byte{1, 1, 2, 3}) {
			t.Errorf("post-reset read = %+v", r)
		}
	})
	m.Eng.Run()
}

func TestCorruptSQERecovered(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteTGT, Kind: fault.KindCorruptSQE, FromOp: 1, Count: 1},
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(3, 0), Payload: []byte("x")})
		if !w.OK() {
			t.Errorf("write through corrupt SQE = %+v", w)
		}
	})
	m.Eng.Run()
	if d.CorruptSQEs != 1 || d.Retries != 1 {
		t.Fatalf("corrupt=%d retries=%d, want 1/1", d.CorruptSQEs, d.Retries)
	}
}

func TestCorruptCQEIsIgnoredAndTimedOut(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindCorruptCQE, FromOp: 1, Count: 1},
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(4, 0), Payload: []byte("y")})
		if !w.OK() {
			t.Errorf("write through corrupt CQE = %+v", w)
		}
	})
	m.Eng.Run()
	if d.UnknownCompletions != 1 {
		t.Fatalf("unknown completions = %d, want 1", d.UnknownCompletions)
	}
	if d.Timeouts != 1 || d.Retries != 1 {
		t.Fatalf("timeouts=%d retries=%d, want 1/1", d.Timeouts, d.Retries)
	}
}

func TestWorkerCrashRecovered(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteTGT, Kind: fault.KindWorkerCrash, FromOp: 1, Count: 1},
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(5, 0), Payload: []byte("z")})
		if !w.OK() {
			t.Errorf("write through worker crash = %+v", w)
		}
	})
	m.Eng.Run()
	if d.WorkerCrashes != 1 || d.Timeouts != 1 {
		t.Fatalf("crashes=%d timeouts=%d, want 1/1", d.WorkerCrashes, d.Timeouts)
	}
}

func TestHeaderOverflowIsIOErrorNotPanic(t *testing.T) {
	m := newTestMachine(t, model.Default())
	d := NewDriver(m, faultCfg(), func(p *sim.Proc, req Request) Response {
		// Response header larger than the submission's RHLen.
		return Response{Status: nvme.StatusOK, Header: make([]byte, 32), Data: []byte("d")}
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: header(1, 0), ReadLen: 4096, RHLen: 1})
		if r.Status != nvme.StatusIOError {
			t.Errorf("status = %s, want IO", nvme.StatusString(r.Status))
		}
	})
	m.Eng.Run()
	if d.HeaderOverflows != 1 {
		t.Fatalf("overflows = %d, want 1", d.HeaderOverflows)
	}
}

// TestNoDeadlinesWithoutInjector pins the invariant that keeps fault-free
// runs byte-identical to the seed: no injector, no timers, no retries, no
// obs registrations.
func TestNoDeadlinesWithoutInjector(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: []byte("q")})
		if !w.OK() {
			t.Errorf("write = %+v", w)
		}
	})
	m.Eng.Run()
	if d.Timeouts != 0 || d.Retries != 0 || d.DedupHits != 0 {
		t.Fatalf("fault machinery ran without an injector: %d/%d/%d", d.Timeouts, d.Retries, d.DedupHits)
	}
}

// TestStragglerCannotCompleteItsRetry: a read whose first attempt outlives
// its deadline is retried, and the retry usually gets back the CID the first
// attempt released. The straggling first attempt must neither write into the
// retry's response nor have its completion accepted as the retry's: the read
// returns the written bytes, and the straggler's CQE is a counted drop.
func TestStragglerCannotCompleteItsRetry(t *testing.T) {
	m := newTestMachine(t, model.Default())
	vc := newVirtualClient()
	reads := 0
	d := NewDriver(m, faultCfg(), func(p *sim.Proc, req Request) Response {
		if req.SQE.FileOp == nvme.FileOpRead {
			reads++
			switch reads {
			case 1:
				p.Sleep(cmdTimeout + time.Millisecond) // outlives its deadline
			case 2:
				p.Sleep(2 * time.Millisecond) // still running when the first attempt finishes
			}
		}
		return vc.handle(p, req)
	})
	d.SetFaults(fault.New(m.Eng, nil)) // deadlines armed, nothing injected
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	m.Eng.Go("app", func(p *sim.Proc) {
		if w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: payload}); !w.OK() {
			t.Errorf("write = %+v", w)
		}
		r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: header(1, 0), ReadLen: 4096, RHLen: 1})
		if !r.OK() || !bytes.Equal(r.Data, payload) {
			t.Errorf("read after a spurious timeout: status %s, %d bytes, want the %d written bytes",
				nvme.StatusString(r.Status), len(r.Data), len(payload))
		}
	})
	m.Eng.Run()
	if d.Timeouts != 1 || d.Retries != 1 || d.UnknownCompletions != 1 || reads != 2 {
		t.Fatalf("timeouts=%d retries=%d unknown=%d handler reads=%d, want 1/1/1/2",
			d.Timeouts, d.Retries, d.UnknownCompletions, reads)
	}
}

// TestRetirePathsBalanceQueueResources: a clean completion, a deadline abort
// and a controller reset each retire commands; once the quarantined slots
// have come back, the queue holds exactly what it started with.
func TestRetirePathsBalanceQueueResources(t *testing.T) {
	o := obs.New()
	mcfg := model.Default()
	mcfg.Obs = o
	m := newTestMachine(t, mcfg)
	vc := newVirtualClient()
	cfg := faultCfg()
	d := NewDriver(m, cfg, vc.handle)
	// Completion 1 is clean. Completion 2 is dropped: a deadline abort whose
	// retry (completion 3) succeeds. From completion 4 on every completion
	// of the third command is dropped until its retry budget is spent, which
	// trips a controller reset on the way.
	d.SetFaults(fault.New(m.Eng, []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 2, Count: 1},
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 4},
	}))
	m.Eng.Go("app", func(p *sim.Proc) {
		want := []uint16{nvme.StatusOK, nvme.StatusOK, nvme.StatusTimeout}
		for i, st := range want {
			w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(uint64(i), 0), Payload: []byte("x")})
			if w.Status != st {
				t.Errorf("cmd %d = %s, want %s", i, nvme.StatusString(w.Status), nvme.StatusString(st))
			}
		}
	})
	m.Eng.Run() // runs past the last slot's quarantine
	if d.Timeouts == 0 || d.Resets != 1 {
		t.Fatalf("timeouts=%d resets=%d: the schedule did not reach every retire path", d.Timeouts, d.Resets)
	}
	qs := d.queues[0]
	if len(qs.freeCID) != cfg.Depth || len(qs.freeSlots) != cfg.SlotsPerQ {
		t.Errorf("free CIDs %d / slots %d, want %d / %d", len(qs.freeCID), len(qs.freeSlots), cfg.Depth, cfg.SlotsPerQ)
	}
	if qs.npending != 0 || slices.ContainsFunc(qs.pending, func(pd *Pending) bool { return pd != nil }) {
		t.Errorf("pending: count %d, table %v, want none", qs.npending, qs.pending)
	}
	if d.inflight != 0 || d.oInflight.Value() != 0 {
		t.Errorf("inflight %d, gauge %v, want 0", d.inflight, d.oInflight.Value())
	}
}

// TestStaleDeadlineSparesRecycledRecord: a command's deadline names its
// attempt by (CID, token), not by the record that carries it. The first
// command completes halfway to its deadline and its Wait returns, so its
// record and its CID go to the next command, which is still running when the
// first command's deadline fires. That stale deadline must find nothing to
// abort: the second command completes once, untouched, with no timeout and
// no retry.
func TestStaleDeadlineSparesRecycledRecord(t *testing.T) {
	m := newTestMachine(t, model.Default())
	vc := newVirtualClient()
	var start sim.Time
	writes := 0
	d := NewDriver(m, faultCfg(), func(p *sim.Proc, req Request) Response {
		if req.SQE.FileOp == nvme.FileOpWrite {
			writes++
			switch writes {
			case 1:
				p.Sleep(cmdTimeout / 2)
			case 2:
				// Still running when the first command's deadline fires,
				// done well before its own.
				p.SleepUntil(start + sim.Time(cmdTimeout+cmdTimeout/4))
			}
		}
		return vc.handle(p, req)
	})
	d.SetFaults(fault.New(m.Eng, nil)) // deadlines armed, nothing injected
	m.Eng.Go("app", func(p *sim.Proc) {
		start = p.Now()
		first := d.Enqueue(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: []byte("first")})
		d.Ring(p, 0)
		cid := first.cid
		if c := first.Wait(p); !c.OK() {
			t.Errorf("first write = %+v", c)
		}
		second := d.Enqueue(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(2, 0), Payload: []byte("second")})
		d.Ring(p, 0)
		if second != first || second.cid != cid {
			t.Fatalf("the second command did not reuse the first one's record and CID: the test shows nothing")
		}
		if c := second.Wait(p); !c.OK() || c.Result != uint32(len("second")) {
			t.Errorf("second write = %+v", c)
		}
		if p.Now() < start+sim.Time(cmdTimeout) {
			t.Errorf("second write finished at %v, before the first deadline", p.Now()-start)
		}
	})
	m.Eng.Run()
	if d.Timeouts != 0 || d.Retries != 0 || writes != 2 {
		t.Fatalf("timeouts=%d retries=%d handler writes=%d, want 0/0/2", d.Timeouts, d.Retries, writes)
	}
}
