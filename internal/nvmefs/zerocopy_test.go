package nvmefs

import (
	"bytes"
	"runtime"
	"testing"

	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// TestSubmit8KTGTZeroAllocs: one 8 KiB write plus one 8 KiB read through
// Driver.Submit. The TGT side pulls the request into a pooled buffer and
// gathers the response straight into host memory, so in steady state no
// payload-sized buffer is allocated anywhere; what remains is the fixed
// per-command bookkeeping (the Pending handle, which holds the pending entry
// and its cond; the worker Proc and its closure) — bounded, not zero.
func TestSubmit8KTGTZeroAllocs(t *testing.T) {
	m := model.NewMachine(model.Default())
	defer m.Eng.Shutdown()
	store := make([]byte, 8192)
	d := NewDriver(m, Config{Queues: 1, Depth: 64, SlotsPerQ: 32, MaxIO: 64 * 1024, RHCap: 256},
		func(p *sim.Proc, req Request) Response {
			if req.SQE.FileOp == nvme.FileOpWrite {
				copy(store, req.Data)
				return Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
			}
			return Response{Status: nvme.StatusOK, Header: store[:1], Data: store}
		})
	payload := bytes.Repeat([]byte{0xA5}, 8192)
	hdr, dst := make([]byte, 16), make([]byte, 8192)
	kick := sim.NewCond(m.Eng, "step")
	m.Eng.Go("app", func(p *sim.Proc) {
		for {
			kick.Wait(p)
			w := d.Submit(p, 0, Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: payload})
			r := d.Submit(p, 0, Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: 8192, ReadInto: dst})
			if !w.OK() || !r.OK() || !bytes.Equal(r.Data, payload) {
				t.Errorf("round trip failed: write %+v read status %d", w, r.Status)
			}
		}
	})
	m.Eng.Run()
	step := func() { kick.Signal(); m.Eng.Run() }
	for i := 0; i < 8; i++ {
		step()
	}
	const maxAllocs, maxBytes = 13, 2048
	if a := testing.AllocsPerRun(100, step); a > maxAllocs {
		t.Fatalf("8K write+read: %v allocs, want <= %d", a, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 100; b > maxBytes {
		t.Fatalf("8K write+read: %d bytes allocated per pair, want <= %d (a payload-sized buffer is back)", b, maxBytes)
	}
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
			m := model.NewMachine(model.Default())
			defer m.Eng.Shutdown()
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
