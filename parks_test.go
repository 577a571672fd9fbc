package dpc

import (
	"bytes"
	"fmt"
	"testing"

	"dpc/internal/sim"
)

// TestKVFSDirectParksPerOp bounds the engine parks of a kvfs_direct-shaped
// world: 32 threads of 8 KiB direct I/O, 70 % reads, on files they filled
// first. Only the application threads and the handlers' nested calls park:
// the nvme-fs TGT and each command's response tail run as events, which
// more than halved the count (13.19 parks per op on the bench's kvfs_direct
// when every TGT step was a park), and so does a command's host side, which
// parks its submitter once (7.03 here when each of its steps parked).
func TestKVFSDirectParksPerOp(t *testing.T) {
	sys := New(DefaultOptions())
	defer sys.Shutdown()
	cl := sys.KVFSClient()
	const threads, pages, ops = 32, 16, 40
	files := make([]*File, threads)
	fill := make([]func(p *sim.Proc), threads)
	for i := range fill {
		fill[i] = func(p *sim.Proc) {
			f, err := cl.Create(p, i, fmt.Sprintf("/t%d", i))
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			files[i] = f
			data := bytes.Repeat([]byte{byte(i)}, 8192)
			for k := range pages {
				if err := f.Write(p, i, uint64(k)*8192, data, true); err != nil {
					t.Errorf("fill: %v", err)
					return
				}
			}
		}
	}
	sys.Drive(fill...)
	if t.Failed() {
		return
	}
	run := make([]func(p *sim.Proc), threads)
	for i := range run {
		run[i] = func(p *sim.Proc) {
			f, buf := files[i], make([]byte, 8192)
			for k := range ops {
				off := uint64((k*7+i)%pages) * 8192
				var err error
				if k%10 < 7 {
					_, err = f.ReadInto(p, i, off, buf, true)
				} else {
					err = f.Write(p, i, off, buf, true)
				}
				if err != nil {
					t.Errorf("op %d: %v", k, err)
					return
				}
			}
		}
	}
	parks := sys.M.Eng.Parks
	sys.Drive(run...)
	perOp := float64(sys.M.Eng.Parks-parks) / (threads * ops)
	t.Logf("%.3f parks per op", perOp)
	if perOp > kvfsDirectParksBound {
		t.Errorf("%.3f engine parks per 8 KiB direct op, want at most %.2f", perOp, kvfsDirectParksBound)
	}
}

// kvfsDirectParksBound is the 4.135 parks per op this test reads, plus 5 %.
const kvfsDirectParksBound = 4.34
