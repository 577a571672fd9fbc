package exp

import (
	"fmt"

	"dpc/internal/workload"
)

// Fig8Result is the hybrid cache's contribution: direct vs buffered 8K
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
		// The 32 MB hybrid cache covers the working set.
		for _, mk := range []func() *world{saExt4, func() *world { return saKVFS(cachePages(4096)) }} {
			w := mk()
			for _, direct := range []bool{true, false} {
				kase := key3(w.name, direct, op)
				if op == workload.Read && !direct {
					// Warm the cache so buffered reads measure hits; the
					// random fill needs several windows' worth of misses.
					measure(w.m, w.name, kase+" warm-up", workload.Config{Threads: randThreads, Warmup: 0, Measure: 4 * (warm + meas), Seed: 7}, gen, w.do(false))
				}
				out.Rand[kase] = measure(w.m, w.name, kase, workload.Config{Threads: randThreads, Warmup: warm, Measure: meas, Seed: 8}, gen, w.do(direct)).IOPS
			}
			w.stop()
		}
	}

	// Sequential read: the prefetcher is the star (paper: 100x at 1
	// thread, ~3x at 32 threads for KVFS). Scans cover a region the caches
	// can hold; past cache capacity both degrade to capacity thrash.
	for _, threads := range []int{1, 32} {
		gen := workload.SequentialGen(saIOSize, 8<<20, workload.Read)
		cfg := workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 9}
		for _, mk := range []func() *world{saExt4, func() *world { return saKVFS(cachePages(8192)) }} {
			w := mk()
			for _, mode := range []string{"direct", "buffered"} {
				kase := fmt.Sprintf("%s/%s/%d", w.name, mode, threads)
				out.Seq[kase] = measure(w.m, w.name, kase, cfg, gen, w.do(mode == "direct")).IOPS
			}
			w.stop()
		}
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
func RunFig8(s Scale) []*Table { return renderFig8(Fig8Data(s)) }

func renderFig8(d Fig8Result) []*Table {
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
