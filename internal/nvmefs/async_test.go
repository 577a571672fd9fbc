package nvmefs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// TestSubmitBatchOneDoorbell: an N-command burst rings the doorbell exactly
// once, the TGT consumes the SQEs in submission order, and each completion
// lands on the Pending of the matching CID.
func TestSubmitBatchOneDoorbell(t *testing.T) {
	const n = 8
	m := newTestMachine(t, model.Default())
	vc := newVirtualClient()
	// The handler log pins down in-order SQE consumption and the node->CID
	// assignment the host made at enqueue time.
	type seen struct {
		node uint64
		cid  uint16
	}
	var order []seen
	d := NewDriver(m, Config{Queues: 1, Depth: 64, SlotsPerQ: 32, MaxIO: 64 * 1024, RHCap: 256},
		func(p *sim.Proc, req Request) Response {
			if req.SQE.FileOp == nvme.FileOpWrite {
				node := uint64(0)
				if len(req.Header) >= 8 {
					node = uint64(req.Header[0])
				}
				order = append(order, seen{node: node, cid: req.SQE.CID})
			}
			return vc.handle(p, req)
		})

	var mmios int
	m.PCIe.Subscribe(func(ev pcie.Event) {
		if ev.Op == pcie.OpMMIO {
			mmios++
		}
	})

	m.Eng.Go("app", func(p *sim.Proc) {
		subs := make([]Submission, n)
		for i := range subs {
			// Distinct lengths so a mismatched completion is detectable via
			// Result; distinct nodes so read-back catches payload swaps.
			subs[i] = Submission{
				FileOp:  nvme.FileOpWrite,
				Header:  header(uint64(i), 0),
				Payload: bytes.Repeat([]byte{byte(i + 1)}, 1024+i),
			}
		}
		pends := d.SubmitBatch(p, 0, subs)
		if len(pends) != n {
			t.Fatalf("SubmitBatch returned %d pendings, want %d", len(pends), n)
		}
		// A Pending is the driver's again once Wait returns: note the CIDs
		// first.
		cids := make([]uint16, n)
		for i, pend := range pends {
			cids[i] = pend.cid
		}
		for i, pend := range pends {
			comp := pend.Wait(p)
			if !comp.OK() {
				t.Errorf("cmd %d: completion = %+v", i, comp)
			}
			if comp.Result != uint32(1024+i) {
				t.Errorf("cmd %d: Result = %d, want %d (completion matched to wrong CID?)",
					i, comp.Result, 1024+i)
			}
		}
		if mmios != 1 {
			t.Errorf("burst of %d commands cost %d MMIOs, want exactly 1", n, mmios)
		}
		if len(order) != n {
			t.Fatalf("handler saw %d writes, want %d", len(order), n)
		}
		for i, s := range order {
			if s.node != uint64(i) {
				t.Errorf("SQE %d consumed out of order: node %d", i, s.node)
			}
			if s.cid != cids[i] {
				t.Errorf("cmd %d: handler saw CID %d, Pending has %d", i, s.cid, cids[i])
			}
		}
		// Read everything back: payloads must not have crossed commands.
		for i := 0; i < n; i++ {
			r := d.Submit(p, 0, Submission{
				FileOp: nvme.FileOpRead, Header: header(uint64(i), 0), RHLen: 1, ReadLen: 2048,
			})
			if !bytes.Equal(r.Data, bytes.Repeat([]byte{byte(i + 1)}, 1024+i)) {
				t.Errorf("cmd %d: read-back data differs", i)
			}
		}
	})
	m.Eng.Run()
}

// TestBatchExceedsQueueResources is the satellite regression: a single
// process batching far more commands than Depth and SlotsPerQ must park on
// the slot/SQ conds (ringing its already-staged prefix so it can drain) and
// finish without deadlock, with every completion correct.
func TestBatchExceedsQueueResources(t *testing.T) {
	m := newTestMachine(t, model.Default())
	vc := newVirtualClient()
	d := NewDriver(m, Config{Queues: 1, Depth: 4, SlotsPerQ: 2, MaxIO: 64 * 1024, RHCap: 64, InflightWindow: 16}, vc.handle)

	const n = 32 // 16x SlotsPerQ, 8x Depth
	m.Eng.Go("app", func(p *sim.Proc) {
		subs := make([]Submission, n)
		for i := range subs {
			subs[i] = Submission{
				FileOp:  nvme.FileOpWrite,
				Header:  header(uint64(i), 0),
				Payload: bytes.Repeat([]byte{byte(i)}, 256+i),
			}
		}
		pends := d.SubmitBatch(p, 0, subs)
		for i, pend := range pends {
			comp := pend.Wait(p)
			if !comp.OK() || comp.Result != uint32(256+i) {
				t.Errorf("cmd %d: completion = %+v", i, comp)
			}
		}
		if d.inflight != 0 {
			t.Errorf("inflight = %d after draining, want 0", d.inflight)
		}
	})
	m.Eng.Run()
	if got := int(d.Completed); got != n {
		t.Fatalf("Completed = %d, want %d", got, n)
	}
}

// TestWaitOutOfOrder: Pendings may be waited in any order; completions are
// reaped at IRQ time, so a late Wait still finds its result.
func TestWaitOutOfOrder(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		subs := make([]Submission, 4)
		for i := range subs {
			subs[i] = Submission{
				FileOp:  nvme.FileOpWrite,
				Header:  header(uint64(i), 0),
				Payload: make([]byte, 512*(i+1)),
			}
		}
		pends := d.SubmitBatch(p, 0, subs)
		for i := len(pends) - 1; i >= 0; i-- {
			comp := pends[i].Wait(p)
			if !comp.OK() || comp.Result != uint32(512*(i+1)) {
				t.Errorf("cmd %d: completion = %+v", i, comp)
			}
		}
	})
	m.Eng.Run()
}

// TestSerialSubmitStillRingsPerCommand: Submit (the sync wrapper) keeps the
// one-doorbell-per-command behavior, so serial callers are unaffected.
func TestSerialSubmitStillRingsPerCommand(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	var mmios int
	m.PCIe.Subscribe(func(ev pcie.Event) {
		if ev.Op == pcie.OpMMIO {
			mmios++
		}
	})
	m.Eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(9, uint64(i)), Payload: make([]byte, 128)})
		}
	})
	m.Eng.Run()
	if mmios != 3 {
		t.Fatalf("3 serial submits cost %d MMIOs, want 3", mmios)
	}
}

// TestWaitTwicePanics: once Wait has returned, the Pending is the driver's
// free record. A second Wait panics instead of returning a blank completion
// and filing the record twice for later commands.
func TestWaitTwicePanics(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		pend := d.Enqueue(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: []byte("once")})
		d.Ring(p, 0)
		if c := pend.Wait(p); !c.OK() {
			t.Errorf("write = %+v", c)
		}
		pend.Wait(p)
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "already returned") {
			t.Fatalf("second Wait: recovered %v, want the already-returned panic", r)
		}
	}()
	m.Eng.Run()
}
