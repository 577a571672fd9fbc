package nvmefs

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// newFaultDriver builds a single-queue driver with an attached injector and
// a handler that counts its own invocations (for dedup assertions).
func newFaultDriver(t *testing.T, cfg Config, rules []fault.Rule) (*model.Machine, *Driver, *fault.Injector, *int) {
	t.Helper()
	mcfg := model.Default()
	mcfg.HostMemMB = 96
	mcfg.DPUMemMB = 8
	m := model.NewMachine(mcfg)
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
	mcfg := model.Default()
	mcfg.HostMemMB = 96
	mcfg.DPUMemMB = 8
	m := model.NewMachine(mcfg)
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
