package nvmefs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/nvme"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// traceDMAs logs every DMA's label and end instant on m's link into b.
func traceDMAs(d *Driver, b *strings.Builder) {
	d.m.PCIe.Subscribe(func(ev pcie.Event) {
		if ev.Op == pcie.OpDMA {
			fmt.Fprintf(b, "%s@%d ", ev.Label, ev.At)
		}
	})
}

// TestValidateFailureKeepsRingOrder: an SQE that fails validation (its
// opcode corrupted in flight) and a valid SQE behind it on the same
// doorbell both complete, in ring order, and the second SQE's fetch starts
// only once the error CQE's DMA has ended. The instants are the ones the
// TGT had when it ran as a process.
func TestValidateFailureKeepsRingOrder(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteTGT, Kind: fault.KindCorruptSQE, FromOp: 1, Count: 1},
	})
	var log strings.Builder
	traceDMAs(d, &log)
	m.Eng.Go("app", func(p *sim.Proc) {
		pends := d.SubmitBatch(p, 0, []Submission{
			{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: make([]byte, 4096)},
			{FileOp: nvme.FileOpWrite, Header: header(2, 0), Payload: make([]byte, 4096)},
		})
		for i, pd := range pends {
			c := pd.Wait(p)
			fmt.Fprintf(&log, "| done%d@%d status %d ", i, p.Now(), c.Status)
		}
	})
	m.Eng.Run()
	if d.CorruptSQEs != 1 || d.Retries != 1 {
		t.Fatalf("corrupt=%d retries=%d, want 1/1", d.CorruptSQEs, d.Retries)
	}
	const want = "sqe@9930 cqe@12631 sqe@12835 prp@15539 data-in@16021 cqe@16222 sqe@41823 prp@44527 data-in@45009 cqe@45210 | done0@51995 status 0 | done1@56280 status 0 "
	if got := log.String(); got != want {
		t.Fatalf("DMAs and completions:\n got %s\nwant %s", got, want)
	}
}

// TestFreezeMidFetch: a controller freeze that fires at the TGT's fault
// hook, between the SQE fetch and its parse, stalls that command for the
// freeze and the next fetch until the thaw; both commands complete at the
// instants they had when the TGT ran as a process.
func TestFreezeMidFetch(t *testing.T) {
	m, d, _, _ := newFaultDriver(t, faultCfg(), []fault.Rule{
		{Site: fault.SiteTGT, Kind: fault.KindFreeze, FromOp: 1, Count: 1, Delay: 20 * time.Microsecond},
	})
	var log strings.Builder
	traceDMAs(d, &log)
	for i := range 2 {
		m.Eng.Go("app", func(p *sim.Proc) {
			c := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(uint64(i), 0), Payload: make([]byte, 8192)})
			fmt.Fprintf(&log, "| done%d@%d status %d ", i, p.Now(), c.Status)
		})
	}
	m.Eng.Run()
	const want = "sqe@6692 prp@29396 data-in@30160 sqe@30364 cqe@30365 prp@33068 data-in@33832 cqe@34033 | done0@37150 status 0 | done1@40818 status 0 "
	if got := log.String(); got != want {
		t.Fatalf("DMAs and completions:\n got %s\nwant %s", got, want)
	}
}

// TestSchedShedKeepsOrder: in a two-tenant driver whose tenant 0 may queue
// one command, a burst sheds at admission with StatusOverload, posted by the
// TGT in queue order before any buffer DMA; every command completes at the
// instant it had when the TGT ran as a process.
func TestSchedShedKeepsOrder(t *testing.T) {
	m, d := newTenantDriver(t, 2, []TenantConfig{{MaxQueued: 1, MaxInflight: 1}, {}}, 50*time.Microsecond)
	var log strings.Builder
	traceDMAs(d, &log)
	m.Eng.Go("app", func(p *sim.Proc) {
		subs := make([]Submission, 4)
		for i := range subs {
			subs[i] = Submission{FileOp: nvme.FileOpWrite, Header: header(uint64(i), 0), Payload: make([]byte, 2048)}
		}
		for i, pd := range d.SubmitBatch(p, 0, subs) {
			c := pd.Wait(p)
			fmt.Fprintf(&log, "| done%d@%d status %d ", i, p.Now(), c.Status)
		}
	})
	m.Eng.Run()
	if st := d.TenantStats(0); st.Shed == 0 {
		t.Fatalf("nothing shed: %+v", st)
	}
	const want = "sqe@16406 sqe@19110 prp@19114 data-in@19455 sqe@21814 cqe@24515 sqe@24719 cqe@27420 cqe@69656 prp@69860 data-in@70201 | done0@76441 status 0 cqe@120402 | done1@127187 status 0 sqe@153879 prp@156583 data-in@156924 cqe@207125 | done2@213910 status 0 sqe@240602 prp@243306 data-in@243647 cqe@293848 | done3@300633 status 0 "
	if got := log.String(); got != want {
		t.Fatalf("DMAs and completions:\n got %s\nwant %s", got, want)
	}
}
