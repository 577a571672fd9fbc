package exp

import (
	"fmt"
	"time"

	dpcroot "dpc"
	"dpc/internal/workload"
	"dpc/internal/world"
)

// standalone experiment dataset geometry: a handful of shared big files so
// random I/O always touches allocated blocks without ballooning memory.
const (
	saFiles    = 4
	saFileSize = 32 << 20 // 32 MB each
	saIOSize   = 8192
)

// saExt4 and saKVFS are the standalone experiments' pre-filled worlds:
// saFiles big files of saFileSize bytes each.
func saExt4() *world.World {
	return world.NewExt4(nil).Prefill(world.BigFileName, saFiles, saFileSize, 0, 0)
}

func saKVFS(mutate func(*dpcroot.Options)) *world.World {
	return world.NewDPC("kvfs", mutate).Prefill(world.BigFileName, saFiles, saFileSize, 0, time.Minute)
}

// cachePages sizes a KVFS world's hybrid cache (0: none).
func cachePages(n int) func(*dpcroot.Options) {
	return func(o *dpcroot.Options) { o.CachePages = n }
}

// Fig7Point is one (stack, op, threads) measurement.
type Fig7Point struct {
	Stack   string
	Op      string
	Threads int
	world.Point
}

// Fig7Data sweeps concurrency for Ext4 and KVFS with direct 8K random I/O.
func Fig7Data(s Scale) []Fig7Point {
	warm, meas := s.windows()
	var out []Fig7Point
	for _, op := range []workload.OpKind{workload.Read, workload.Write} {
		readPct := 0
		if op == workload.Read {
			readPct = 100
		}
		ext, kw := saExt4(), saKVFS(cachePages(2048))
		for _, threads := range s.threadSweep() {
			gen := workload.RandomGen(saIOSize, saFileSize, readPct)
			cfg := workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: int64(threads)}
			kase := fmt.Sprintf("%s %d threads", op, threads)
			for _, w := range []*world.World{ext, kw} {
				out = append(out, Fig7Point{Stack: w.Name, Op: op.String(), Threads: threads,
					Point: measure(w.M, w.Name, kase, cfg, gen, w.Do(true))})
			}
		}
		ext.Stop()
		kw.Stop()
	}
	return out
}

// RunFig7 renders Figure 7.
func RunFig7(s Scale) []*Table { return renderFig7(Fig7Data(s)) }

func renderFig7(pts []Fig7Point) []*Table {
	lat := &Table{
		Title:  "Figure 7(a): 8K random latency (direct I/O)",
		Header: []string{"op", "threads", "ext4", "kvfs"},
	}
	iops := &Table{
		Title:  "Figure 7(b): 8K random IOPS (direct I/O)",
		Header: []string{"op", "threads", "ext4", "kvfs"},
	}
	cpu := &Table{
		Title:  "Figure 7(c): host CPU usage",
		Header: []string{"op", "threads", "ext4 host", "kvfs host", "kvfs DPU"},
	}
	for i := 0; i+1 < len(pts); i += 2 {
		e, k := pts[i], pts[i+1]
		lat.Rows = append(lat.Rows, []string{e.Op, fmt.Sprint(e.Threads), fmtDur(e.Mean), fmtDur(k.Mean)})
		iops.Rows = append(iops.Rows, []string{e.Op, fmt.Sprint(e.Threads), fmtIOPS(e.IOPS), fmtIOPS(k.IOPS)})
		cpu.Rows = append(cpu.Rows, []string{e.Op, fmt.Sprint(e.Threads),
			fmtPct(e.HostUsage), fmtPct(k.HostUsage), fmtPct(k.DPUUsage)})
	}
	lat.Notes = append(lat.Notes,
		"paper: ext4 wins <=32 threads; kvfs wins >=64; at 256 threads ext4 779/1009us vs kvfs 363/410us (r/w)")
	iops.Notes = append(iops.Notes,
		"paper: ext4 saturates at the SSD limit past 32 threads; kvfs scales until ~128 threads (DPU CPU bound)")
	cpu.Notes = append(cpu.Notes,
		"paper: kvfs host CPU < 20% everywhere; ext4 > 90% at 256 threads")
	return []*Table{lat, iops, cpu}
}

// bwOptions sizes a world for 1 MB I/O: no cache, and a per-command MaxIO
// big enough that a 1 MB request is one nvme-fs command.
func bwOptions(o *dpcroot.Options) {
	o.CachePages = 0
	o.NvmeFS.Queues = 8
	o.NvmeFS.Depth = 32
	o.NvmeFS.SlotsPerQ = 4
	o.NvmeFS.MaxIO = 1 << 20
}

// bwWindows returns longer windows for bandwidth runs: 1 MB operations need
// room for many completions per thread.
func bwWindows(s Scale) (time.Duration, time.Duration) {
	if s == Full {
		return 20 * time.Millisecond, 150 * time.Millisecond
	}
	return 10 * time.Millisecond, 60 * time.Millisecond
}

// Table2Data measures the sequential-bandwidth table.
func Table2Data(s Scale) map[string]float64 {
	warm, meas := bwWindows(s)
	out := map[string]float64{}
	for _, threads := range []int{1, 32} {
		for _, op := range []workload.OpKind{workload.Read, workload.Write} {
			gen := workload.SequentialGen(1<<20, saFileSize, op)
			cfg := workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 2}
			for _, mk := range []func() *world.World{saExt4, func() *world.World { return saKVFS(bwOptions) }} {
				w := mk()
				out[fmt.Sprintf("%s/%s/%d", w.Name, op, threads)] = measure(w.M, w.Name, fmt.Sprintf("1MB seq %s, %d threads", op, threads), cfg, gen, w.Do(true)).GBps
				w.Stop()
			}
		}
	}
	return out
}

// RunTable2 renders Table 2.
func RunTable2(s Scale) []*Table { return renderTable2(Table2Data(s)) }

func renderTable2(d map[string]float64) []*Table {
	t := &Table{
		Title:  "Table 2: sequential bandwidth",
		Header: []string{"threads", "workload", "Ext4", "KVFS"},
		Rows: [][]string{
			{"1", "1MB seq. read", fmtGBps(d["ext4/read/1"]), fmtGBps(d["kvfs/read/1"])},
			{"1", "1MB seq. write", fmtGBps(d["ext4/write/1"]), fmtGBps(d["kvfs/write/1"])},
			{"32", "1MB seq. read", fmtGBps(d["ext4/read/32"]), fmtGBps(d["kvfs/read/32"])},
			{"32", "1MB seq. write", fmtGBps(d["ext4/write/32"]), fmtGBps(d["kvfs/write/32"])},
		},
		Notes: []string{"paper: Ext4 1.8/1.6 then 3.0/2.0 GB/s; KVFS 5.0/3.1 then 7.6/5.0 GB/s"},
	}
	return []*Table{t}
}
