package dpc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpc/internal/bufpool"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/workload"
)

// poisonPool turns on bufpool's poison-on-release for one test (root tests
// never run in parallel): a request or page buffer retained past its release
// then reads 0xDB and fails the test's data checks instead of passing by luck.
func poisonPool(t *testing.T) {
	bufpool.SetPoison(true)
	t.Cleanup(func() { bufpool.SetPoison(false) })
}

// TestSystemDeterminism: two identically configured systems running the
// same workload must produce bit-identical results — operation counts,
// virtual-time latencies, PCIe traffic and CPU accounting. This is the
// property that makes every number in EXPERIMENTS.md exactly reproducible.
func TestSystemDeterminism(t *testing.T) {
	poisonPool(t)
	run := func() string {
		opts := DefaultOptions()
		opts.CachePages = 1024
		sys := New(opts)
		cl := sys.KVFSClient()
		var files []*File
		sys.Go(func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				f, err := cl.Create(p, 0, fmt.Sprintf("/f%d", i))
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				f.Write(p, 0, 0, make([]byte, 1<<20), true)
				files = append(files, f)
			}
		})
		sys.RunFor(time.Second)

		res := workload.Run(sys.M.Eng, workload.Config{
			Threads: 16, Warmup: time.Millisecond, Measure: 5 * time.Millisecond, Seed: 99,
		}, workload.RandomGen(8192, 1<<20, 70), func(p *sim.Proc, tid int, a workload.Access) error {
			f := files[tid%len(files)]
			if a.Kind == workload.Write {
				return f.Write(p, tid, a.Off, make([]byte, a.Size), tid%2 == 0)
			}
			_, err := f.Read(p, tid, a.Off, a.Size, tid%2 == 0)
			return err
		})

		fingerprint := fmt.Sprintf("ops=%d bytes=%d mean=%v p99=%v dmas=%d mmios=%d atomics=%d kvops=%d now=%v",
			res.Ops, res.Bytes, res.Lat.Mean(), res.Lat.Percentile(99),
			sys.M.PCIe.DMAs.Total(), sys.M.PCIe.MMIOs.Total(), sys.M.PCIe.Atomics.Total(),
			sys.KVCluster.Ops.Total(), sys.Now())
		sys.StopDaemons()
		sys.Shutdown()
		return fingerprint
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic runs:\n  a: %s\n  b: %s", a, b)
	}
}

// TestDFSDeterminism is TestSystemDeterminism for the distributed file
// service: every write fans out to several data servers in parallel, so the
// order those RPCs are issued in is part of virtual time. Same seed, same end
// time and the same metrics snapshot, byte for byte.
func TestDFSDeterminism(t *testing.T) {
	poisonPool(t)
	run := func() string {
		opts := DefaultOptions()
		opts.Model.Obs = obs.New()
		opts.EnableKVFS = false
		opts.EnableDFS = true
		opts.CachePages = 512
		sys := New(opts)
		cl := sys.DFSClient()
		var files []*File
		sys.Go(func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				f, err := cl.Create(p, 0, fmt.Sprintf("/vol/f%d", i))
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if err := f.Write(p, 0, 0, make([]byte, 256<<10), true); err != nil {
					t.Errorf("preload: %v", err)
				}
				files = append(files, f)
			}
		})
		sys.RunFor(time.Second)
		if len(files) != 4 {
			t.Fatalf("preloaded %d of 4 files", len(files))
		}

		res := workload.Run(sys.M.Eng, workload.Config{
			Threads: 8, Warmup: time.Millisecond, Measure: 5 * time.Millisecond, Seed: 7,
		}, workload.RandomGen(8192, 256<<10, 50), func(p *sim.Proc, tid int, a workload.Access) error {
			f := files[tid%len(files)]
			if a.Kind == workload.Write {
				return f.Write(p, tid, a.Off, make([]byte, a.Size), tid%2 == 0)
			}
			_, err := f.Read(p, tid, a.Off, a.Size, tid%2 == 0)
			return err
		})
		sys.StopDaemons()
		sys.Run()
		snap, err := sys.Obs().SnapshotJSON(sys.Now())
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		sys.Shutdown()
		return fmt.Sprintf("ops=%d now=%v\n%s", res.Ops, sys.Now(), snap)
	}
	a, b := strings.Split(run(), "\n"), strings.Split(run(), "\n")
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("non-deterministic DFS runs, first difference at line %d:\n  a: %s\n  b: %s", i, a[i], b[min(i, len(b)-1)])
		}
	}
	if len(b) != len(a) {
		t.Fatalf("non-deterministic DFS runs: %d vs %d snapshot lines", len(a), len(b))
	}
}
