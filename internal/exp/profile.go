package exp

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	dpcroot "dpc"
	"dpc/internal/fuse"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/virtio"
)

// The profiled reference workload: the paper's Figure 2(b)/4 8 KB walks on
// both transports, backed by a real simulated SSD so the breakdown shows
// the story quantitatively — nvme-fs ops are SSD-service-bound while
// virtio-fs carries a strictly higher DMA+wait share — followed by the
// cached KVFS mix exercising the full client → nvme-fs → dispatch span
// tree. dpcbench -prof-out renders this run; the exp tests assert the
// transport comparison and the attribution invariant over it.

// ProfiledReference runs the reference workload under critical-path
// profiling and returns the obs handle plus the final virtual time.
// Profiling is enabled before any machine exists: components latch the
// profiling handle at construction.
func ProfiledReference() (*obs.Obs, sim.Time) {
	o := obs.New()
	o.EnableProfiling()
	ProfileNvmeWalk(o, 8192)
	ProfileVirtioWalk(o, 8192)
	now := profiledCachedMix(o)
	return o, now
}

// ProfileNvmeWalk plays one 8 KB (or size-byte) write then read over
// nvme-fs against an SSD-backed handler, each op under a root span so the
// critical-path walk can stitch host submit, doorbell, DPU TGT/worker, and
// completion into one chain.
func ProfileNvmeWalk(o *obs.Obs, size int) {
	cfg := model.Default()
	cfg.HostMemMB = 64
	cfg.DPUMemMB = 8
	cfg.Obs = o
	m := model.NewMachine(cfg)
	dev := m.NewSSD()
	d := nvmefs.NewDriver(m, nvmefs.Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 1 << 20, RHCap: 64},
		func(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
			off := int64(req.SQE.DW12)
			switch req.SQE.FileOp {
			case nvme.FileOpWrite:
				if err := dev.Write(p, off, req.Data); err != nil {
					return nvmefs.Response{Status: nvme.StatusInvalid}
				}
				return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
			case nvme.FileOpRead:
				data, err := dev.Read(p, off, size)
				if err != nil {
					return nvmefs.Response{Status: nvme.StatusInvalid}
				}
				return nvmefs.Response{Status: nvme.StatusOK, Header: []byte{1}, Data: data}
			}
			return nvmefs.Response{Status: nvme.StatusInvalid}
		})
	m.Eng.Go("nvme-walk", func(p *sim.Proc) {
		hdr := make([]byte, 16)
		ws := o.Begin(p, "nvmefs.op.write")
		d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: make([]byte, size)})
		ws.End(p)
		rs := o.Begin(p, "nvmefs.op.read")
		d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: size})
		rs.End(p)
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

// ProfileVirtioWalk plays the same SSD-backed write+read over virtio-fs;
// virtio.write / virtio.read already root the whole op.
func ProfileVirtioWalk(o *obs.Obs, size int) {
	cfg := model.Default()
	cfg.HostMemMB = 64
	cfg.DPUMemMB = 8
	cfg.Obs = o
	m := model.NewMachine(cfg)
	dev := m.NewSSD()
	tr := virtio.NewTransport(m, virtio.Config{QueueSize: 256, Slots: 16, MaxIO: 1 << 20},
		func(p *sim.Proc, req fuse.Request) fuse.Response {
			switch req.Header.Opcode {
			case fuse.OpWrite:
				if err := dev.Write(p, int64(req.IO.Offset), req.Data); err != nil {
					return fuse.Response{Error: -5}
				}
				return fuse.Response{}
			case fuse.OpRead:
				data, err := dev.Read(p, int64(req.IO.Offset), size)
				if err != nil {
					return fuse.Response{Error: -5}
				}
				return fuse.Response{Data: data}
			}
			return fuse.Response{Error: -38}
		})
	m.Eng.Go("virtio-walk", func(p *sim.Proc) {
		if err := tr.Write(p, 1, 1, 0, make([]byte, size)); err != nil {
			fmt.Fprintln(os.Stderr, "profile virtio write:", err)
		}
		if _, err := tr.Read(p, 1, 1, 0, size); err != nil {
			fmt.Fprintln(os.Stderr, "profile virtio read:", err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

// profiledCachedMix is the buffered KVFS mix from the -metrics-out
// reference run: warm-up write, two mostly-hitting read passes, an fsync
// through the flush path, then a direct write + cold read.
func profiledCachedMix(o *obs.Obs) sim.Time {
	opts := dpcroot.DefaultOptions()
	opts.Model.HostMemMB = 192
	opts.Model.DPUMemMB = 8
	opts.Model.Obs = o
	sys := dpcroot.New(opts)
	cl := sys.KVFSClient()
	payload := make([]byte, 256*1024)
	rand.New(rand.NewSource(42)).Read(payload)
	dst := make([]byte, len(payload))
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/bench.dat")
		if err != nil {
			fmt.Fprintln(os.Stderr, "profile mix create:", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, false); err != nil {
			fmt.Fprintln(os.Stderr, "profile mix write:", err)
			return
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := f.ReadInto(p, 0, 0, dst, false); err != nil {
				fmt.Fprintln(os.Stderr, "profile mix read:", err)
				return
			}
		}
		if err := f.Sync(p, 0); err != nil {
			fmt.Fprintln(os.Stderr, "profile mix fsync:", err)
		}
		f2, err := cl.Create(p, 0, "/cold.dat")
		if err != nil {
			fmt.Fprintln(os.Stderr, "profile mix create cold:", err)
			return
		}
		if err := f2.Write(p, 0, 0, payload, true); err != nil {
			fmt.Fprintln(os.Stderr, "profile mix direct write:", err)
			return
		}
		if _, err := f2.ReadInto(p, 0, 0, dst, false); err != nil {
			fmt.Fprintln(os.Stderr, "profile mix cold read:", err)
		}
	})
	sys.RunFor(time.Second)
	now := sys.Now()
	sys.Shutdown()
	return now
}
