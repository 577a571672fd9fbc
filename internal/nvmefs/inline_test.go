package nvmefs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dpc/internal/fault"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

func newInlineDriver(t *testing.T, queues, inlineMax int) (*model.Machine, *Driver, *virtualClient) {
	t.Helper()
	cfg := model.Default()
	cfg.HostMemMB = 96
	cfg.DPUMemMB = 8
	m := model.NewMachine(cfg)
	vc := newVirtualClient()
	d := NewDriver(m, Config{
		Queues: queues, Depth: 64, SlotsPerQ: 32, MaxIO: 64 * 1024, RHCap: 256,
		InlineMax: inlineMax,
	}, vc.handle)
	return m, d, vc
}

// An inline small write skips the PRP/header fetch and the payload data-in
// DMA: only the SQE fetch and the CQE delivery remain, plus one host PIO
// burst into the DPU inline window.
func TestInlineWriteCosts2DMAsAnd1PIO(t *testing.T) {
	m, d, _ := newInlineDriver(t, 1, 512)
	m.Eng.Go("app", func(p *sim.Proc) {
		m.PCIe.Mark()
		c := d.Submit(p, 0, Submission{
			FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: make([]byte, 256),
		})
		if !c.OK() {
			t.Errorf("completion = %+v", c)
		}
		if got := m.PCIe.DMAs.Delta(); got != 2 {
			t.Errorf("inline 256B write DMA count = %d, want 2", got)
		}
		if got := m.PCIe.PIOs.Delta(); got != 1 {
			t.Errorf("inline 256B write PIO count = %d, want 1", got)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if d.InlineWrites != 1 {
		t.Fatalf("InlineWrites = %d, want 1", d.InlineWrites)
	}
}

// An inline small read delivers [CQE|header|data] in one enlarged-CQE DMA,
// replacing the separate data-out and CQE DMAs: 3 DMAs instead of 4.
func TestInlineReadCosts3DMAs(t *testing.T) {
	m, d, _ := newInlineDriver(t, 1, 512)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m.Eng.Go("app", func(p *sim.Proc) {
		d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: payload})
		m.PCIe.Mark()
		c := d.Submit(p, 0, Submission{
			FileOp: nvme.FileOpRead, Header: header(1, 0), ReadLen: 256, RHLen: 1,
		})
		if !c.OK() || !bytes.Equal(c.Data, payload) {
			t.Errorf("inline read completion = %+v", c)
		}
		if got := m.PCIe.DMAs.Delta(); got != 3 {
			t.Errorf("inline 256B read DMA count = %d, want 3", got)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if d.InlineReads != 1 {
		t.Fatalf("InlineReads = %d, want 1", d.InlineReads)
	}
}

// ReadInto completions must land in the caller's buffer and alias it.
func TestInlineReadInto(t *testing.T) {
	m, d, _ := newInlineDriver(t, 1, 512)
	payload := []byte("inline data lands in the caller's buffer")
	dst := make([]byte, 64)
	m.Eng.Go("app", func(p *sim.Proc) {
		d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(3, 0), Payload: payload})
		c := d.Submit(p, 0, Submission{
			FileOp: nvme.FileOpRead, Header: header(3, 0), ReadLen: 64, RHLen: 1, ReadInto: dst,
		})
		if !c.OK() {
			t.Errorf("completion = %+v", c)
		}
		if len(c.Data) != len(payload) || &c.Data[0] != &dst[0] {
			t.Errorf("Completion.Data does not alias ReadInto buffer")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if !bytes.Equal(dst[:len(payload)], payload) {
		t.Fatalf("dst = %q, want %q", dst[:len(payload)], payload)
	}
}

// Round-trip integrity across the cutover boundaries: payloads at 0, 1, the
// cutover itself, one byte either side of it, InlineMax, and one byte past
// InlineMax must all survive a write/read cycle, and exactly those in
// (0, cutover] take the inline path.
func TestInlineCutoverBoundaries(t *testing.T) {
	m, d, _ := newInlineDriver(t, 1, 512)
	m.Eng.Go("app", func(p *sim.Proc) {
		cut := d.cutover
		if cut <= 0 || cut >= 512 {
			t.Fatalf("cutover = %d, want in (0, 512)", cut)
		}
		sizes := []int{0, 1, cut - 1, cut, cut + 1, 512, 513}
		for i, n := range sizes {
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(i + j*11)
			}
			before := d.InlineWrites
			w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(9, uint64(i)), Payload: payload})
			if !w.OK() {
				t.Errorf("write n=%d: %+v", n, w)
			}
			if inlined := d.InlineWrites > before; inlined != (0 < n && n <= cut) {
				t.Errorf("write n=%d inlined=%v, cutover=%d", n, inlined, cut)
			}
			r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: header(9, uint64(i)), ReadLen: 1024, RHLen: 1})
			if !r.OK() || !bytes.Equal(r.Data, payload) {
				t.Errorf("read-back n=%d: got %d bytes, status %s", n, len(r.Data), nvme.StatusString(r.Status))
			}
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

// Inline commands must survive the retry/dedup machinery exactly like DMA
// commands: a dropped completion times out, resubmits with the same token,
// and the executed-response cache answers the retry without a second handler
// run.
func TestInlineWriteUnderDroppedCompletion(t *testing.T) {
	cfg := faultCfg()
	cfg.InlineMax = 512
	mcfg := model.Default()
	mcfg.HostMemMB = 96
	mcfg.DPUMemMB = 8
	m := model.NewMachine(mcfg)
	vc := newVirtualClient()
	execs := 0
	d := NewDriver(m, cfg, func(p *sim.Proc, req Request) Response {
		execs++
		return vc.handle(p, req)
	})
	in := fault.New(m.Eng, []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 1, Count: 1},
	})
	d.SetFaults(in)
	payload := []byte("inline write survives a lost CQE and dedups its retry")
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
	if d.Timeouts != 1 || d.Retries != 1 {
		t.Fatalf("timeouts=%d retries=%d, want 1/1", d.Timeouts, d.Retries)
	}
	if execs != 2 || d.DedupHits != 1 {
		t.Fatalf("handler runs=%d dedup=%d, want 2 runs with 1 dedup hit", execs, d.DedupHits)
	}
	if d.InlineWrites != 2 {
		t.Fatalf("InlineWrites = %d, want 2 (original and retry both inline)", d.InlineWrites)
	}
}

// With InlineMax left at zero the driver must not register inline metrics,
// take inline branches, or issue PIOs — the disabled path is bit-for-bit the
// pre-inline driver.
func TestInlineDisabledNoPIOsNoCounters(t *testing.T) {
	m, d, _ := newTestDriver(t, 1)
	m.Eng.Go("app", func(p *sim.Proc) {
		c := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: header(1, 0), Payload: make([]byte, 64)})
		if !c.OK() {
			t.Errorf("completion = %+v", c)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if d.InlineWrites != 0 || d.InlineReads != 0 || d.InlineBytes != 0 {
		t.Fatalf("inline counters = %d/%d/%d, want 0/0/0",
			d.InlineWrites, d.InlineReads, d.InlineBytes)
	}
	if got := m.PCIe.PIOs.Total(); got != 0 {
		t.Fatalf("PIOs = %d, want 0 with inline disabled", got)
	}
}

// Determinism: two identical inline-enabled runs must agree on virtual time,
// DMA/PIO counts, and inline counters.
func TestInlineDeterminism(t *testing.T) {
	run := func() string {
		m, d, _ := newInlineDriver(t, 2, 512)
		m.Eng.Go("app", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				n := (i*37)%600 + 1
				payload := make([]byte, n)
				for j := range payload {
					payload[j] = byte(i ^ j)
				}
				q := i % 2
				w := d.Submit(p, q, Submission{FileOp: nvme.FileOpWrite, Header: header(5, uint64(i)), Payload: payload})
				if !w.OK() {
					t.Errorf("write %d: %+v", i, w)
				}
				r := d.Submit(p, q, Submission{FileOp: nvme.FileOpRead, Header: header(5, uint64(i)), ReadLen: 1024, RHLen: 1})
				if !r.OK() || !bytes.Equal(r.Data, payload) {
					t.Errorf("read %d mismatch", i)
				}
			}
		})
		m.Eng.Run()
		fp := fmt.Sprintf("now=%d dmas=%d pios=%d piob=%d iw=%d ir=%d ib=%d",
			m.Eng.Now(), m.PCIe.DMAs.Total(), m.PCIe.PIOs.Total(), m.PCIe.PIOBytes.Total(),
			d.InlineWrites, d.InlineReads, d.InlineBytes)
		m.Eng.Shutdown()
		return fp
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("inline runs diverged:\n  %s\n  %s", a, b)
	}
}

// The write cutover is the break-even payload of one PIO burst against two
// DMAs on the configured link, clamped to [0, InlineMax], with a positive
// InlineCutover as the only override.
func TestWriteCutover(t *testing.T) {
	link := func(setup, mmio time.Duration) pcie.Config {
		pc := pcie.DefaultConfig()
		pc.DMASetup, pc.MMIOLatency = setup, mmio
		return pc
	}
	def := pcie.DefaultConfig()
	for _, tc := range []struct {
		name string
		pc   pcie.Config
		cfg  Config
		want int
	}{
		{"default link", def, Config{InlineMax: 512}, 389},
		{"1.5us setup saturates", link(1500*time.Nanosecond, def.MMIOLatency), Config{InlineMax: 512}, 512},
		{"inline off", def, Config{}, 0},
		{"inline off ignores pin", def, Config{InlineCutover: 100}, 0},
		{"pin", def, Config{InlineMax: 512, InlineCutover: 100}, 100},
		{"pin above InlineMax", def, Config{InlineMax: 512, InlineCutover: 4096}, 512},
		{"2*setup == mmio", link(125*time.Nanosecond, 250*time.Nanosecond), Config{InlineMax: 512}, 0},
		{"2*setup < mmio", link(100*time.Nanosecond, 250*time.Nanosecond), Config{InlineMax: 512}, 0},
	} {
		if got := WriteCutover(tc.pc, tc.cfg); got != tc.want {
			t.Errorf("%s: WriteCutover = %d, want %d", tc.name, got, tc.want)
		}
	}
}
