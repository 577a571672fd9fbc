package nvmefs

import (
	"bytes"
	"runtime"
	"testing"

	"dpc/internal/bufpool"
	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// zeroAllocDriver is a one-queue driver over an 8 KiB store whose handler
// allocates nothing: writes copy in, reads return the store itself.
func zeroAllocDriver(t *testing.T) (*model.Machine, *Driver, []byte) {
	m := newTestMachine(t, model.Default())
	store := make([]byte, 8192)
	d := NewDriver(m, Config{Queues: 1, Depth: 64, SlotsPerQ: 32, MaxIO: 64 * 1024, RHCap: 256},
		func(p *sim.Proc, req Request) Response {
			if req.SQE.FileOp == nvme.FileOpWrite {
				copy(store, req.Data)
				return Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
			}
			return Response{Status: nvme.StatusOK, Header: store[:1], Data: store}
		})
	return m, d, store
}

// steadyAllocs runs round on an app process once per step, warms it up, and
// checks that a step allocates nothing and under 2 KiB (a payload-sized
// buffer) however it is counted.
func steadyAllocs(t *testing.T, m *model.Machine, name string, round func(p *sim.Proc)) {
	t.Helper()
	kick := sim.NewCond(m.Eng, "step")
	m.Eng.Go("app", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			round(p)
		}
	})
	m.Eng.Run()
	step := func() { kick.Signal(); m.Eng.Run() }
	for i := 0; i < 8; i++ {
		step()
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("%s: %v allocs, want 0", name, a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 100; b > 2048 {
		t.Fatalf("%s: %d bytes allocated per step, want <= 2048 (a payload-sized buffer is back)", name, b)
	}
}

// TestSubmit8KTGTZeroAllocs: one 8 KiB write plus one 8 KiB read through
// Driver.Submit allocate nothing in steady state. Submit's host-side steps
// run as a chain of events on the command's own record, which schedules
// itself without a bound func (sim.Stepper). The TGT pulls the request
// into a pooled buffer and gathers the response straight into host memory;
// the command record, the nvme-worker that runs it and the interrupt that
// completes it are all recycled, and the read's response header and payload
// land in the caller's HeaderInto and ReadInto.
func TestSubmit8KTGTZeroAllocs(t *testing.T) {
	m, d, _ := zeroAllocDriver(t)
	payload := bytes.Repeat([]byte{0xA5}, 8192)
	hdr, rh, dst := make([]byte, 16), make([]byte, 1), make([]byte, 8192)
	steadyAllocs(t, m, "8K write+read", func(p *sim.Proc) {
		w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: payload})
		r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: 8192, ReadInto: dst, HeaderInto: rh})
		if !w.OK() || !r.OK() || !bytes.Equal(r.Data, payload) {
			t.Errorf("round trip failed: write %+v read status %d", w, r.Status)
		}
	})
}

// TestBatch8KZeroAllocs: four 8 KiB writes on one doorbell, then four 8 KiB
// reads on another, allocate nothing either, with four commands, workers and
// interrupts in flight at once. The burst goes through Enqueue and Ring,
// which is SubmitBatch without the result slice it returns; the first Wait
// of each burst parks before its completion, whose interrupt then books the
// reap in its place (the fused reap).
func TestBatch8KZeroAllocs(t *testing.T) {
	const depth = 4
	m, d, _ := zeroAllocDriver(t)
	payload := bytes.Repeat([]byte{0x3C}, 8192)
	hdr := make([]byte, 16)
	var rh [depth][1]byte
	var dst [depth][8192]byte
	var pends [depth]*Pending
	steadyAllocs(t, m, "4-deep 8K batch", func(p *sim.Proc) {
		for i := range pends {
			pends[i] = d.Enqueue(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: payload})
		}
		d.Ring(p, 0)
		for i, pend := range pends {
			if c := pend.Wait(p); !c.OK() {
				t.Errorf("write %d: status %d", i, c.Status)
			}
		}
		for i := range pends {
			pends[i] = d.Enqueue(p, 0, Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: 8192,
				ReadInto: dst[i][:], HeaderInto: rh[i][:]})
		}
		d.Ring(p, 0)
		for i, pend := range pends {
			if c := pend.Wait(p); !c.OK() || !bytes.Equal(c.Data, payload) {
				t.Errorf("read %d: status %d", i, c.Status)
			}
		}
	})
}

// TestExecuteDataOutBytes: the gathered data-out write leaves host memory
// byte-equal to the [header | zeros to RHCap | data] concatenation it
// replaced, truncated to ReadLen — for a header shorter than, equal to and
// (the counted error case) longer than the reserved length.
func TestExecuteDataOutBytes(t *testing.T) {
	const rhCap, dataLen = 64, 1000
	data := make([]byte, dataLen)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	hdrOf := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }
	cases := []struct {
		name             string
		respHdr          int // bytes of response header the handler returns
		rhLen, readLen   int // what the submitter reserves
		wantOverflow     bool
		wantData, wantOK int // payload bytes expected back; host header bytes
	}{
		{"header shorter than RHCap", 5, 5, dataLen, false, dataLen, 5},
		{"header equal to RHCap", rhCap, rhCap, dataLen, false, dataLen, rhCap},
		{"header longer than reserved", 9, 8, dataLen, true, 0, 0},
		{"ReadLen truncates data", 5, 5, 600, false, 600, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, model.Default())
			d := NewDriver(m, Config{Queues: 1, Depth: 8, SlotsPerQ: 1, MaxIO: 4096, RHCap: rhCap},
				func(p *sim.Proc, req Request) Response {
					return Response{Status: nvme.StatusOK, Header: hdrOf(tc.respHdr), Data: data}
				})
			qs := d.queues[0]
			_, rbuf := qs.slotBufs(0)
			// Dirty the read buffer so the zero gap is the write's doing.
			span := m.HostMem.Slice(rbuf, qs.rStride)
			for i := range span {
				span[i] = 0x77
			}
			var comp Completion
			m.Eng.Go("app", func(p *sim.Proc) {
				comp = d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: make([]byte, 16), RHLen: tc.rhLen, ReadLen: tc.readLen})
			})
			m.Eng.Run()
			if tc.wantOverflow {
				if comp.Status != nvme.StatusIOError || d.HeaderOverflows != 1 {
					t.Fatalf("overflow: status %d overflows %d", comp.Status, d.HeaderOverflows)
				}
				if !bytes.Equal(span, bytes.Repeat([]byte{0x77}, len(span))) {
					t.Fatal("overflow: host read buffer was written")
				}
				return
			}
			// The old path: concat into a fresh buffer, truncate to ReadLen.
			want := make([]byte, rhCap+dataLen)
			copy(want, hdrOf(tc.respHdr))
			copy(want[rhCap:], data)
			if n := rhCap + tc.readLen; len(want) > n {
				want = want[:n]
			}
			if got := m.HostMem.Slice(rbuf, len(want)); !bytes.Equal(got, want) {
				t.Fatalf("host read buffer differs from the concat image (first diff at %d)", firstDiff(got, want))
			}
			if rest := m.HostMem.Slice(rbuf+mem.Addr(len(want)), qs.rStride-len(want)); !bytes.Equal(rest, bytes.Repeat([]byte{0x77}, len(rest))) {
				t.Fatal("bytes past the transfer were written")
			}
			if !comp.OK() || len(comp.Header) != tc.wantOK || !bytes.Equal(comp.Data, data[:tc.wantData]) {
				t.Fatalf("completion: status %d header %d data %d", comp.Status, len(comp.Header), len(comp.Data))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestPullsFillPoisonedRequestBuffer: the TGT pulls a request into a pooled
// buffer that is not cleared first, so the PRP and data-in pulls must cover
// it whole. With every released buffer poisoned, a handler still sees each
// request's exact header and payload, whatever the size the buffer last
// served.
func TestPullsFillPoisonedRequestBuffer(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	m := newTestMachine(t, model.Default())
	var hdr []byte
	var payload []byte
	d := NewDriver(m, Config{Queues: 1, Depth: 16, SlotsPerQ: 4, MaxIO: 64 * 1024, RHCap: 64},
		func(p *sim.Proc, req Request) Response {
			if !bytes.Equal(req.Header, hdr) || !bytes.Equal(req.Data, payload) {
				t.Errorf("handler saw header %x and %d payload bytes, want %x and %d", req.Header, len(req.Data), hdr, len(payload))
			}
			return Response{Status: nvme.StatusOK}
		})
	m.Eng.Go("app", func(p *sim.Proc) {
		for i, n := range []int{8192, 0, 100, 8000, 0, 16000, 1} {
			hdr = bytes.Repeat([]byte{byte(i + 1)}, 16+i)
			payload = bytes.Repeat([]byte{byte(0x40 + i)}, n)
			if n == 0 {
				payload = nil
			}
			if c := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: payload}); !c.OK() {
				t.Errorf("write %d: status %d", i, c.Status)
			}
		}
	})
	m.Eng.Run()
}
