package dpc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpc/internal/fuse"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
	"dpc/internal/virtio"
)

// dmaPhases counts OpDMA events per phase; the doorbell/kick MMIO is not a
// DMA and is excluded (it shows up under pcie.link.mmios instead).
type dmaPhases struct{ n int64 }

func (d *dmaPhases) attach(l *pcie.Link) {
	l.Subscribe(func(ev pcie.Event) {
		if ev.Op == pcie.OpDMA {
			d.n++
		}
	})
}

func (d *dmaPhases) take() int64 {
	v := d.n
	d.n = 0
	return v
}

// TestTracedDMAWalkNvme: an instrumented 8 KB write+read over nvme-fs moves
// exactly 4 DMAs per phase (sqe, prp, data, cqe) — the paper's Figure 4.
func TestTracedDMAWalkNvme(t *testing.T) {
	cfg := model.Default()
	cfg.Obs = obs.New()
	m := model.NewMachine(cfg)
	store := map[uint64][]byte{}
	d := nvmefs.NewDriver(m, nvmefs.Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 1 << 20, RHCap: 64},
		func(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
			off := req.SQE.DW12
			switch req.SQE.FileOp {
			case nvme.FileOpWrite:
				store[uint64(off)] = append([]byte(nil), req.Data...)
				return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
			case nvme.FileOpRead:
				return nvmefs.Response{Status: nvme.StatusOK, Header: []byte{1}, Data: store[uint64(off)]}
			}
			return nvmefs.Response{Status: nvme.StatusInvalid}
		})
	ph := &dmaPhases{}
	ph.attach(m.PCIe)
	var writeDMAs, readDMAs int64
	m.Eng.Go("walk", func(p *sim.Proc) {
		hdr := make([]byte, 16)
		d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: make([]byte, 8192)})
		writeDMAs = ph.take()
		d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: 8192})
		readDMAs = ph.take()
	})
	m.Eng.Run()
	m.Eng.Shutdown()

	if writeDMAs != 4 || readDMAs != 4 {
		t.Errorf("nvme-fs 8KB walk: %d write / %d read DMAs, want 4 / 4", writeDMAs, readDMAs)
	}
	// The registry exports the same traffic: per-phase DMAs plus one doorbell
	// MMIO per submission.
	reg := cfg.Obs.Registry()
	if got := reg.CounterValue("pcie.link.dmas"); got != 8 {
		t.Errorf("pcie.link.dmas = %d, want 8", got)
	}
	if got := reg.CounterValue("pcie.link.mmios"); got != 2 {
		t.Errorf("pcie.link.mmios = %d, want 2", got)
	}
	// And the DMAs were attached as annotations inside the submit span tree.
	out := string(cfg.Obs.Tracer().Perfetto(m.Eng.Now()))
	for _, want := range []string{`"name":"nvmefs.submit"`, `"name":"nvmefs.tgt"`, `"name":"dma:sqe"`, `"name":"dma:cqe"`} {
		if !strings.Contains(out, want) {
			t.Errorf("Perfetto export missing %s", want)
		}
	}
}

// TestTracedDMAWalkVirtio: the same 8 KB write+read over virtio-fs costs 11
// DMAs per phase — the paper's Figure 2(b) overhead argument.
func TestTracedDMAWalkVirtio(t *testing.T) {
	cfg := model.Default()
	cfg.Obs = obs.New()
	m := model.NewMachine(cfg)
	store := map[uint64][]byte{}
	tr := virtio.NewTransport(m, virtio.Config{QueueSize: 256, Slots: 16, MaxIO: 1 << 20},
		func(p *sim.Proc, req fuse.Request) fuse.Response {
			switch req.Header.Opcode {
			case fuse.OpWrite:
				store[req.IO.Offset] = append([]byte(nil), req.Data...)
				return fuse.Response{}
			case fuse.OpRead:
				return fuse.Response{Data: store[req.IO.Offset]}
			}
			return fuse.Response{Error: -38}
		})
	ph := &dmaPhases{}
	ph.attach(m.PCIe)
	var writeDMAs, readDMAs int64
	m.Eng.Go("walk", func(p *sim.Proc) {
		if err := tr.Write(p, 1, 1, 0, make([]byte, 8192)); err != nil {
			t.Errorf("virtio write: %v", err)
		}
		writeDMAs = ph.take()
		if _, err := tr.Read(p, 1, 1, 0, 8192); err != nil {
			t.Errorf("virtio read: %v", err)
		}
		readDMAs = ph.take()
	})
	m.Eng.Run()
	m.Eng.Shutdown()

	if writeDMAs != 11 || readDMAs != 11 {
		t.Errorf("virtio-fs 8KB walk: %d write / %d read DMAs, want 11 / 11", writeDMAs, readDMAs)
	}
}

// runObservedSystem drives a fixed KVFS workload on a fully instrumented
// system and returns the Perfetto export and metrics snapshot.
func runObservedSystem(t *testing.T) ([]byte, []byte, *obs.Obs) {
	t.Helper()
	opts := DefaultOptions()
	opts.Model.Obs = obs.New()
	sys := New(opts)
	cl := sys.KVFSClient()
	payload := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/obs.dat")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, false); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		if _, err := f.Read(p, 0, 0, len(payload), false); err != nil {
			t.Errorf("Read: %v", err)
			return
		}
		if err := f.Sync(p, 0); err != nil {
			t.Errorf("Sync: %v", err)
		}
	})
	sys.RunFor(100 * time.Millisecond)
	now := sys.Now()
	trace := sys.Obs().Tracer().Perfetto(now)
	snap, err := sys.Obs().SnapshotJSON(now)
	if err != nil {
		t.Fatalf("SnapshotJSON: %v", err)
	}
	sys.Shutdown()
	return trace, snap, sys.Obs()
}

// TestSystemObsDeterminism: identical systems running the identical workload
// export byte-identical traces and snapshots, and the span tree covers every
// layer a buffered op crosses.
func TestSystemObsDeterminism(t *testing.T) {
	trace1, snap1, o := runObservedSystem(t)
	trace2, snap2, _ := runObservedSystem(t)
	if !bytes.Equal(trace1, trace2) {
		t.Error("identical runs produced different Perfetto JSON")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("identical runs produced different metrics snapshots")
	}

	reg := o.Registry()
	for _, name := range []string{
		"cache.host.hits", "cache.ctl.flushes", "nvmefs.driver.completed",
		"dispatch.requests", "pcie.link.dmas", "cpu.dpu-cpu.busy_ns",
	} {
		if reg.CounterValue(name) == 0 {
			t.Errorf("counter %s is zero after an instrumented workload", name)
		}
	}
	if reg.Histogram("client.write.latency").Latency().Count() == 0 {
		t.Error("client.write.latency recorded no samples")
	}
	out := string(trace1)
	for _, want := range []string{
		`"name":"client.write"`, `"name":"client.fsync"`, `"name":"nvmefs.submit"`,
		`"name":"nvmefs.worker"`, `"name":"dispatch.flush"`, `"name":"kvfs.write"`,
		`"name":"cache.flush_page"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Perfetto export missing %s", want)
		}
	}
}

// observedDFSSystem is a small DFS-DPC system with obs on.
func observedDFSSystem() *System {
	opts := DefaultOptions()
	opts.Model.Obs = obs.New()
	opts.EnableKVFS = false
	opts.EnableDFS = true
	return New(opts)
}

// The two tests below pin the disagreements the paired counters had drifted
// into on a DFS-DPC world, where each site bumped the struct field and forgot
// its registry twin. A count that is stored once and exported by name cannot
// disagree with itself.

// TestPrefetchCountExportedDFS: the single-page prefetch path — the only one
// a backend without a range read takes — shows up under cache.ctl.prefetches.
func TestPrefetchCountExportedDFS(t *testing.T) {
	sys := observedDFSSystem()
	cl := sys.DFSClient()
	const pages = 64
	sys.Drive(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/seq.dat")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, make([]byte, pages*8192), true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		buf := make([]byte, 8192)
		for i := uint64(0); i < pages; i++ {
			if _, err := f.ReadInto(p, 0, i*8192, buf, false); err != nil {
				t.Errorf("ReadInto page %d: %v", i, err)
				return
			}
		}
	})
	snap := sys.Obs().Registry().Snapshot(sys.Now())
	sys.Shutdown()
	if got, want := snap.Counters["cache.ctl.prefetches"], sys.DFSService().Ctl.Prefetches.Total(); got != want || got == 0 {
		t.Errorf("cache.ctl.prefetches = %d, Ctl.Prefetches = %d; want equal and > 0", got, want)
	}
}

// TestCoreOpsExportedDFS: dfs.core.ops counts every core operation, the
// metadata ones (create, lookup, set-size) included.
func TestCoreOpsExportedDFS(t *testing.T) {
	sys := observedDFSSystem()
	cl := sys.DFSClient()
	sys.Drive(func(p *sim.Proc) {
		if _, err := cl.Create(p, 0, "/f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		f, err := cl.Open(p, 0, "/f")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, make([]byte, 8192), true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		if _, err := f.Read(p, 0, 0, 8192, true); err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	snap := sys.Obs().Registry().Snapshot(sys.Now())
	sys.Shutdown()
	if got, want := snap.Counters["dfs.core.ops"], sys.DFSCore.Ops.Total(); got != want || got == 0 {
		t.Errorf("dfs.core.ops = %d, Core.Ops = %d; want equal and > 0", got, want)
	}
}
