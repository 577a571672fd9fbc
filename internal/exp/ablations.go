package exp

import (
	"fmt"

	dpcroot "dpc"
	"dpc/internal/cache"
	"dpc/internal/sim"
	"dpc/internal/workload"
)

// RunAblationQueues sweeps the nvme-fs queue count: the multi-queue design
// is one of the two reasons nvme-fs beats virtio-fs (the other being the
// DMA count).
func RunAblationQueues(s Scale) []*Table {
	warm, meas := s.windows()
	t := &Table{
		Title:  "Ablation: nvme-fs queue count (4K random write, 64 threads)",
		Header: []string{"queues", "IOPS", "mean latency"},
		Notes:  []string{"1 queue approximates virtio-fs's single-HAL-thread bottleneck"},
	}
	for _, q := range []int{1, 2, 4, 8, 16} {
		m, do := nvmeRaw(q, 128, 64, 16*1024)
		pt := measureRaw("nvme-fs", m, do, 64, 4096, true, warm, meas)
		t.Rows = append(t.Rows, []string{fmt.Sprint(q), fmtIOPS(pt.IOPS), fmtDur(pt.Mean)})
	}
	return []*Table{t}
}

// RunAblationCachePlacement compares the hybrid cache (host data plane)
// against no cache and against a fully DPU-resident cache, where every hit
// still pays a PCIe round trip (§3.3's argument).
func RunAblationCachePlacement(s Scale) []*Table {
	warm, meas := s.windows()
	const threads = 32
	// 4 files x 8 MB = 4096 pages, half the hybrid cache's 8192 pages.
	workingSet := uint64(8 << 20)
	gen := workload.RandomGen(saIOSize, workingSet, 100)

	t := &Table{
		Title:  "Ablation: cache placement (8K random read, 32 threads, cached working set)",
		Header: []string{"design", "IOPS", "mean latency", "PCIe DMAs/op"},
	}

	for _, d := range []struct {
		design string
		mutate func(*dpcroot.Options)
		// dpuCache turns on the DPU-resident cache; warm runs a warm-up.
		dpuCache, warm, direct bool
		seed                   int64
	}{
		// No cache: every read crosses PCIe to the backend.
		{"no cache", cachePages(0), false, false, true, 5},
		// DPU-only cache: hits skip the backend but ship pages over PCIe.
		{"DPU-only cache", cachePages(0), true, true, true, 6},
		// Hybrid cache: hits stay in host memory.
		{"hybrid cache", cachePages(8192), false, true, false, 6},
	} {
		w := saKVFS(d.mutate)
		if d.dpuCache {
			svc := w.Sys.KVFSService()
			svc.DPUCache = map[[2]uint64][]byte{}
			svc.DPUCacheCap = 8192
		}
		if d.warm {
			measure(w.M, w.Name, d.design+" warm-up", workload.Config{Threads: threads, Warmup: 0, Measure: 4 * (warm + meas), Seed: 5}, gen, w.Do(d.direct))
		}
		pt := measure(w.M, w.Name, d.design, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: d.seed}, gen, w.Do(d.direct))
		t.Rows = append(t.Rows, []string{d.design, fmtIOPS(pt.IOPS), fmtDur(pt.Mean), fmt.Sprintf("%.1f", pt.DMAsPerOp)})
		w.Stop()
	}
	return []*Table{t}
}

// RunAblationPrefetch sweeps the prefetch depth for single-thread
// sequential reads.
func RunAblationPrefetch(s Scale) []*Table {
	warm, meas := s.windows()
	t := &Table{
		Title:  "Ablation: prefetch depth (8K sequential read, 1 thread)",
		Header: []string{"depth", "IOPS", "mean latency", "cache hit rate"},
	}
	for _, depth := range []int{0, 4, 16, 64} {
		w := saKVFS(func(o *dpcroot.Options) {
			o.CachePages = 8192
			o.Ctl.PrefetchDepth = depth
			o.Ctl.PrefetchEnabled = depth > 0
			o.Ctl.AdaptivePrefetch = false
		})
		gen := workload.SequentialGen(saIOSize, saFileSize, workload.Read)
		pt := measure(w.M, w.Name, fmt.Sprintf("prefetch depth %d", depth), workload.Config{Threads: 1, Warmup: warm, Measure: meas, Seed: 4}, gen, w.Do(false))
		hits, misses := w.Cl.CacheStats()
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth), fmtIOPS(pt.IOPS), fmtDur(pt.Mean), fmtPct(rate),
		})
		w.Stop()
	}
	return []*Table{t}
}

// RunAblationECPlacement compares where erasure coding runs: on the MDS
// (standard client), the host (optimized client) or the DPU (DPC).
func RunAblationECPlacement(s Scale) []*Table {
	warm, meas := s.windows()
	const threads = 32
	t := &Table{
		Title:  "Ablation: EC placement (8K random write, 32 threads)",
		Header: []string{"EC location", "client", "IOPS", "host cores"},
	}
	for i, loc := range []string{"server (MDS)", "host CPU", "DPU"} {
		w := dfsWorlds[i]()
		pt := measure(w.M, w.Name, "8K rnd wr", workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 12},
			workload.RandomGen(dfsIOSize, dfsFileSize, 0), w.Do(true))
		t.Rows = append(t.Rows, []string{loc, w.Name, fmtIOPS(pt.IOPS), fmtCores(pt.HostCores)})
		w.Stop()
	}
	return []*Table{t}
}

// RunAblationTransforms measures the cost/benefit of DPU-side block
// transforms (compression + DIF) on KVFS sequential writes of compressible
// data: network bytes drop, DPU cycles rise, host stays out of it.
func RunAblationTransforms(s Scale) []*Table {
	warm, meas := bwWindows(s)
	t := &Table{
		Title:  "Ablation: DPU-side transforms (1MB seq write of compressible data, 8 threads)",
		Header: []string{"transforms", "BW", "net bytes/op", "DPU cores", "host cores"},
		Notes:  []string{"compression shrinks KV values and network traffic; DIF adds end-to-end integrity"},
	}
	for _, mode := range []struct {
		name             string
		compression, dif bool
	}{
		{"none", false, false},
		{"dif", false, true},
		{"lzss", true, false},
		{"lzss+dif", true, true},
	} {
		w := saKVFS(func(o *dpcroot.Options) {
			bwOptions(o)
			o.Compression, o.DIF = mode.compression, mode.dif
		})
		// Compressible payload: repeated text blocks.
		payload := make([]byte, 1<<20)
		pattern := []byte("application log line: GET /api/v1/object served in 420us status=200\n")
		for i := 0; i < len(payload); i += len(pattern) {
			copy(payload[i:], pattern)
		}
		w.M.Net.BytesSent.Mark()
		pt := measure(w.M, w.Name, "transforms "+mode.name, workload.Config{Threads: 8, Warmup: warm, Measure: meas, Seed: 13},
			workload.SequentialGen(1<<20, saFileSize, workload.Write),
			func(p *sim.Proc, tid int, a workload.Access) error {
				return w.FS.Write(p, tid, w.Big[tid%len(w.Big)], a.Off, payload, true)
			})
		netPerOp := float64(w.M.Net.BytesSent.Delta()) / float64(pt.Ops)
		t.Rows = append(t.Rows, []string{
			mode.name, fmtGBps(pt.GBps),
			fmt.Sprintf("%.0fKB", netPerOp/1024),
			fmtCores(pt.DPUCores),
			fmtCores(pt.HostCores),
		})
		w.Stop()
	}
	return []*Table{t}
}

// RunAblationReplacement compares the hybrid cache's replacement policies
// under a skewed (Zipf) read workload whose working set exceeds the cache:
// second-chance (CLOCK) keeps the hot pages, FIFO evicts them blindly.
func RunAblationReplacement(s Scale) []*Table {
	warm, meas := s.windows()
	t := &Table{
		Title:  "Ablation: replacement policy (Zipf 8K reads, working set 2x cache, 32 threads)",
		Header: []string{"policy", "IOPS", "mean latency", "hit rate"},
	}
	for _, mode := range []struct {
		name   string
		policy cache.Policy
	}{
		{"FIFO", cache.PolicyFIFO},
		{"second-chance", cache.PolicySecondChance},
	} {
		w := saKVFS(func(o *dpcroot.Options) {
			o.CachePages = 2048 // 16 MB cache
			o.Ctl.Policy = mode.policy
		})
		gen := workload.ZipfGen(saIOSize, 32<<20, 1.2)
		// Warm until the cache churns at steady state.
		measure(w.M, w.Name, mode.name+" warm-up", workload.Config{Threads: 32, Warmup: 0, Measure: 4 * (warm + meas), Seed: 14}, gen, w.Do(false))
		h0, m0 := w.Cl.CacheStats()
		pt := measure(w.M, w.Name, mode.name, workload.Config{Threads: 32, Warmup: warm, Measure: meas, Seed: 15}, gen, w.Do(false))
		h1, m1 := w.Cl.CacheStats()
		rate := 0.0
		if d := (h1 - h0) + (m1 - m0); d > 0 {
			rate = float64(h1-h0) / float64(d)
		}
		t.Rows = append(t.Rows, []string{
			mode.name, fmtIOPS(pt.IOPS), fmtDur(pt.Mean), fmtPct(rate),
		})
		w.Stop()
	}
	return []*Table{t}
}
