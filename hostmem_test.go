package dpc

import (
	"bytes"
	"fmt"
	"testing"

	"dpc/internal/nvme"
	"dpc/internal/sim"
)

// TestDirectIOResidentHostMem bounds the host memory a default world backs
// while 32 threads run 8 KiB direct I/O, one queue each. Every queue
// reserves 16 request/response slots of 128 KiB, but a thread with one
// command in flight touches one of them: what is backed is the cache layout
// (its header is written at build), the rings, and about a slot per queue.
// Backing every reservation a world makes would cost 66 MB more.
func TestDirectIOResidentHostMem(t *testing.T) {
	opts := DefaultOptions()
	sys := New(opts)
	defer sys.Shutdown()
	cl := sys.KVFSClient()
	const threads, ops = 32, 8
	fns := make([]func(p *sim.Proc), threads)
	for i := range fns {
		fns[i] = func(p *sim.Proc) {
			f, err := cl.Create(p, i, fmt.Sprintf("/t%d", i))
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			data, dst := bytes.Repeat([]byte{byte(i)}, 8192), make([]byte, 8192)
			for k := 0; k < ops; k++ {
				off := uint64(k) * 8192
				if err := f.Write(p, i, off, data, true); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if n, err := f.ReadInto(p, i, off, dst, true); err != nil || n != 8192 || !bytes.Equal(dst, data) {
					t.Errorf("read back %d bytes, %v", n, err)
					return
				}
			}
		}
	}
	sys.Drive(fns...)

	cfg := opts.NvmeFS
	slot := 64 + cfg.RHCap + 2*cfg.MaxIO
	rings := cfg.Depth * (nvme.SQESize + nvme.CQESize)
	bound := cl.cacheHost.L.Size() + cfg.Queues*(rings+slot) + 4*slot
	if got := sys.M.HostMem.Resident(); got > bound {
		t.Errorf("%d bytes of host memory backed, want at most %d: the cache layout, %d queues' rings and about one %d-byte slot each",
			got, bound, cfg.Queues, slot)
	}
}
