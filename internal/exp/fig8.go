package exp

import (
	"fmt"

	"dpc/internal/workload"
)

// Fig8Data measures the hybrid cache's contribution: direct vs buffered 8K
// random IOPS for Ext4 and KVFS, plus the sequential-read prefetch boost at
// 1 and 32 threads.
type Fig8Result struct {
	// Random-I/O IOPS by key "stack/mode/op".
	Rand map[string]float64
	// Sequential-read IOPS by key "stack/mode/threads".
	Seq map[string]float64
}

// Fig8Data runs the Figure 8 workloads.
func Fig8Data(s Scale) Fig8Result {
	warm, meas := s.windows()
	out := Fig8Result{Rand: map[string]float64{}, Seq: map[string]float64{}}
	const randThreads = 32

	// Working set sized so the caches cover it: cache effectiveness, not
	// capacity misses, is what Figure 8 demonstrates.
	workingSet := uint64(8 << 20)

	for _, op := range []workload.OpKind{workload.Read, workload.Write} {
		readPct := 0
		if op == workload.Read {
			readPct = 100
		}
		gen := workload.RandomGen(saIOSize, workingSet, readPct)

		ext := newExt4World(saFiles, saFileSize)
		for _, direct := range []bool{true, false} {
			if op == workload.Read && !direct {
				// Warm the page cache so buffered reads measure hits; the
				// random fill needs several windows' worth of misses.
				workload.Run(ext.m.Eng, workload.Config{Threads: randThreads, Warmup: 0, Measure: 4 * (warm + meas), Seed: 7}, gen, ext.do(false))
			}
			res := workload.Run(ext.m.Eng, workload.Config{Threads: randThreads, Warmup: warm, Measure: meas, Seed: 8}, gen, ext.do(direct))
			out.Rand[key3("ext4", direct, op)] = res.IOPS()
		}
		ext.m.Eng.Shutdown()

		kw := newKVFSWorld(4096) // 32 MB hybrid cache covers the working set
		for _, direct := range []bool{true, false} {
			if op == workload.Read && !direct {
				workload.Run(kw.sys.M.Eng, workload.Config{Threads: randThreads, Warmup: 0, Measure: 4 * (warm + meas), Seed: 7}, gen, kw.do(false))
			}
			res := workload.Run(kw.sys.M.Eng, workload.Config{Threads: randThreads, Warmup: warm, Measure: meas, Seed: 8}, gen, kw.do(direct))
			out.Rand[key3("kvfs", direct, op)] = res.IOPS()
		}
		kw.stop()
	}

	// Sequential read: the prefetcher is the star (paper: 100x at 1
	// thread, ~3x at 32 threads for KVFS). Scans cover a region the caches
	// can hold; past cache capacity both degrade to capacity thrash.
	for _, threads := range []int{1, 32} {
		gen := workload.SequentialGen(saIOSize, 8<<20, workload.Read)

		ext := newExt4World(saFiles, saFileSize)
		res := workload.Run(ext.m.Eng, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 9}, gen, ext.do(true))
		out.Seq[fmt.Sprintf("ext4/direct/%d", threads)] = res.IOPS()
		res = workload.Run(ext.m.Eng, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 9}, gen, ext.do(false))
		out.Seq[fmt.Sprintf("ext4/buffered/%d", threads)] = res.IOPS()
		ext.m.Eng.Shutdown()

		kw := newKVFSWorld(8192)
		res = workload.Run(kw.sys.M.Eng, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 9}, gen, kw.do(true))
		out.Seq[fmt.Sprintf("kvfs/direct/%d", threads)] = res.IOPS()
		res = workload.Run(kw.sys.M.Eng, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 9}, gen, kw.do(false))
		out.Seq[fmt.Sprintf("kvfs/buffered/%d", threads)] = res.IOPS()
		kw.stop()
	}
	return out
}

func key3(stack string, direct bool, op workload.OpKind) string {
	mode := "buffered"
	if direct {
		mode = "direct"
	}
	return fmt.Sprintf("%s/%s/%s", stack, mode, op)
}

// RunFig8 renders Figure 8.
func RunFig8(s Scale) []*Table {
	d := Fig8Data(s)
	randT := &Table{
		Title:  "Figure 8: 8K random IOPS, direct vs buffered (32 threads)",
		Header: []string{"stack", "op", "direct", "buffered", "boost"},
	}
	for _, stack := range []string{"ext4", "kvfs"} {
		for _, op := range []string{"read", "write"} {
			di := d.Rand[stack+"/direct/"+op]
			bu := d.Rand[stack+"/buffered/"+op]
			randT.Rows = append(randT.Rows, []string{
				stack, op, fmtIOPS(di), fmtIOPS(bu), fmt.Sprintf("%.1fx", bu/di),
			})
		}
	}
	seqT := &Table{
		Title:  "Figure 8: sequential-read IOPS, direct vs buffered (prefetch)",
		Header: []string{"stack", "threads", "direct", "buffered", "boost"},
	}
	for _, stack := range []string{"ext4", "kvfs"} {
		for _, th := range []string{"1", "32"} {
			di := d.Seq[stack+"/direct/"+th]
			bu := d.Seq[stack+"/buffered/"+th]
			seqT.Rows = append(seqT.Rows, []string{
				stack, th, fmtIOPS(di), fmtIOPS(bu), fmt.Sprintf("%.1fx", bu/di),
			})
		}
	}
	seqT.Notes = append(seqT.Notes,
		"paper: KVFS prefetch boosts sequential read ~100x at 1 thread and ~3x at 32 threads")
	return []*Table{randT, seqT}
}
