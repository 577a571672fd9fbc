package exp

import (
	"fmt"
	"time"

	dpcroot "dpc"
	"dpc/internal/sim"
	"dpc/internal/workload"
)

// Distributed experiment geometry.
const (
	dfsFiles     = 4
	dfsFileSize  = 16 << 20 // big files for random I/O
	dfsSmallN    = 256      // small-file population
	dfsIOSize    = 8192
	dfsBWThreads = 16
)

// dfsWorlds build Figure 9's three clients — standard NFS, the
// host-optimized client, and NFS+DPC, the same optimized core offloaded to
// the DPU behind nvme-fs with the hybrid cache absorbing buffered writes —
// each with the Figure 1/9 population, settled for 10 s.
var dfsWorlds = []func() *world{
	func() *world { return dfsPrefill(newDFSHostWorld(false)) },
	func() *world { return dfsPrefill(newDFSHostWorld(true)) },
	func() *world {
		return dfsPrefill(newDPCWorld("NFS+DPC", func(o *dpcroot.Options) {
			o.EnableKVFS = false
			o.EnableDFS = true
			o.CachePages = 8192
			// Wider commands so 1 MB sequential I/O does not fragment.
			o.NvmeFS.Queues = 16
			o.NvmeFS.SlotsPerQ = 16
			o.NvmeFS.MaxIO = 256 * 1024
		}))
	},
}

func dfsPrefill(w *world) *world {
	return w.prefill("/big/file%d", dfsFiles, dfsFileSize, dfsSmallN, 10*time.Second)
}

// Fig9Point is one (client, case) measurement.
type Fig9Point struct {
	Client    string
	Case      string
	Value     float64 // IOPS or GB/s
	Unit      string
	HostCores float64
}

// Fig9Data runs every Figure 9 case for every client. Big-file I/O is
// direct on every client: EC + DIO run on the DPU for DPC, like the
// opt-client's path runs on the host. (Buffered writes through the hybrid
// cache complete at host-memory speed as long as the working set fits — see
// the cache-placement ablation — which would make the big-file comparison
// trivially unfair.)
func Fig9Data(s Scale) []Fig9Point {
	warm, meas := s.windows()
	const iopsThreads = 64
	var out []Fig9Point
	for _, mk := range dfsWorlds {
		w := mk()
		run := func(kase string, threads int, gen workload.Generator, do workload.Do, bw bool) {
			pt := measure(w.m, w.name, kase, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 11}, gen, do)
			f := Fig9Point{Client: w.name, Case: kase, Value: pt.IOPS, Unit: "IOPS", HostCores: pt.HostCores}
			if bw {
				f.Value, f.Unit = pt.GBps, "GB/s"
			}
			out = append(out, f)
		}

		// 8K random read / write on big files.
		run("8K rnd rd", iopsThreads, workload.RandomGen(dfsIOSize, dfsFileSize, 100), w.do(true), false)
		run("8K rnd wr", iopsThreads, workload.RandomGen(dfsIOSize, dfsFileSize, 0), w.do(true), false)

		// Small-file 8K random read (lookup + read).
		run("small rnd rd", iopsThreads, workload.RandomGen(dfsIOSize, uint64(dfsSmallN)*dfsIOSize, 100),
			func(p *sim.Proc, tid int, a workload.Access) error {
				ino, err := w.lookup(p, tid, w.small[int(a.Off/dfsIOSize)%len(w.small)])
				if err != nil {
					return err
				}
				return w.read(p, tid, ino, 0, dfsIOSize, true)
			}, false)

		// 8K file creation write. The first write is buffered: DPC's hybrid
		// cache absorbs the new file's bytes and the DPU flushes them
		// asynchronously, which is where its file-create advantage comes
		// from.
		created := 0
		run("8K file cr", iopsThreads, workload.CreateGen(dfsIOSize),
			func(p *sim.Proc, tid int, a workload.Access) error {
				created++
				ino, err := w.create(p, tid, fmt.Sprintf("/new/%s-t%d-i%d", w.name, tid, created))
				if err != nil {
					return err
				}
				return w.write(p, tid, ino, 0, make([]byte, dfsIOSize), false)
			}, false)

		// Sequential bandwidth.
		run("1MB seq rd", dfsBWThreads, workload.SequentialGen(1<<20, dfsFileSize, workload.Read), w.do(true), true)
		run("1MB seq wr", dfsBWThreads, workload.SequentialGen(1<<20, dfsFileSize, workload.Write), w.do(true), true)

		w.stop()
	}
	return out
}

// RunFig9 renders Figure 9.
func RunFig9(s Scale) []*Table { return renderFig9(Fig9Data(s)) }

func renderFig9(pts []Fig9Point) []*Table {
	byCase := map[string]map[string]Fig9Point{}
	var caseOrder []string
	for _, p := range pts {
		if byCase[p.Case] == nil {
			byCase[p.Case] = map[string]Fig9Point{}
			caseOrder = append(caseOrder, p.Case)
		}
		byCase[p.Case][p.Client] = p
	}
	perf := &Table{
		Title:  "Figure 9: performance per client",
		Header: []string{"case", "NFS", "NFS+opt-client", "NFS+DPC", "DPC vs opt"},
	}
	cpu := &Table{
		Title:  "Figure 9: host CPU cores per client",
		Header: []string{"case", "NFS", "NFS+opt-client", "NFS+DPC", "DPC CPU reduction vs opt"},
	}
	for _, kase := range caseOrder {
		std := byCase[kase]["NFS"]
		opt := byCase[kase]["NFS+opt-client"]
		dpcPt := byCase[kase]["NFS+DPC"]
		fmtV := fmtIOPS
		if std.Unit == "GB/s" {
			fmtV = func(v float64) string { return fmtGBps(v) }
		}
		perf.Rows = append(perf.Rows, []string{
			kase, fmtV(std.Value), fmtV(opt.Value), fmtV(dpcPt.Value),
			fmt.Sprintf("%.2fx", dpcPt.Value/opt.Value),
		})
		cpu.Rows = append(cpu.Rows, []string{
			kase, fmtCores(std.HostCores), fmtCores(opt.HostCores), fmtCores(dpcPt.HostCores),
			fmtPct(1 - dpcPt.HostCores/opt.HostCores),
		})
	}
	perf.Notes = append(perf.Notes,
		"paper: opt-client 4-5x NFS IOPS; DPC comparable to opt-client, ~1.4x on 8K rnd wr and file create")
	cpu.Notes = append(cpu.Notes,
		"paper: opt-client 6-15x NFS CPU (~30 cores); DPC ~3.6 cores (~90% reduction vs opt, ~10% above NFS)")
	return []*Table{perf, cpu}
}

// Fig1Data runs the motivation comparison: std vs optimized host client.
func Fig1Data(s Scale) []Fig9Point {
	warm, meas := s.windows()
	const threads = 32
	var out []Fig9Point
	for _, mk := range dfsWorlds[:2] {
		w := mk()
		for _, kase := range []struct {
			name    string
			readPct int
		}{{"rnd rd", 100}, {"rnd wr", 0}, {"mix 70/30", 70}} {
			pt := measure(w.m, w.name, kase.name, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 3},
				workload.RandomGen(dfsIOSize, dfsFileSize, kase.readPct), w.do(true))
			out = append(out, Fig9Point{Client: w.name, Case: kase.name, Value: pt.IOPS, Unit: "IOPS", HostCores: pt.HostCores})
		}
		w.stop()
	}
	return out
}

// RunFig1 renders Figure 1.
func RunFig1(s Scale) []*Table { return renderFig1(Fig1Data(s)) }

func renderFig1(pts []Fig9Point) []*Table {
	t := &Table{
		Title:  "Figure 1: IOPS and CPU cores, standard vs optimized NFS client (32 threads)",
		Header: []string{"workload", "NFS IOPS", "opt IOPS", "speedup", "NFS cores", "opt cores", "CPU ratio"},
	}
	for i := 0; i < 3; i++ {
		std, opt := pts[i], pts[i+3]
		t.Rows = append(t.Rows, []string{
			std.Case, fmtIOPS(std.Value), fmtIOPS(opt.Value),
			fmt.Sprintf("%.1fx", opt.Value/std.Value),
			fmtCores(std.HostCores), fmtCores(opt.HostCores),
			fmt.Sprintf("%.1fx", opt.HostCores/std.HostCores),
		})
	}
	t.Notes = append(t.Notes,
		"paper: optimization improves IOPS ~4x while consuming ~4-6x more CPU cores")
	return []*Table{t}
}
