// Command dpcfio is a fio/vdbench-style workload driver for every stack in
// the repository: local Ext4, DPC's standalone KVFS, and the three DFS
// clients (the pre-filled worlds of internal/world). It runs ad-hoc
// experiments outside the fixed paper sweeps. A run in which any op fails
// reports no rate: it names the stack and the failed-op count and exits 1.
//
// Examples:
//
//	dpcfio -stack kvfs -rw randread -bs 8k -threads 64 -runtime 50ms
//	dpcfio -stack ext4 -rw randwrite -bs 4k -threads 256
//	dpcfio -stack dfs-dpc -rw seqread -bs 1m -threads 16 -buffered
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"dpc"
	"dpc/internal/workload"
	"dpc/internal/world"
)

// stacks are the worlds -stack names, each with the settle step of the
// figure that measures it.
var stacks = map[string]struct {
	build  func() *world.World
	settle time.Duration
}{
	"ext4": {func() *world.World { return world.NewExt4(nil) }, 0},
	"kvfs": {func() *world.World { return world.NewDPC("kvfs", nil) }, time.Minute},
	"dfs-dpc": {func() *world.World {
		return world.NewDPC("dfs-dpc", func(o *dpc.Options) { o.EnableKVFS, o.EnableDFS = false, true })
	}, time.Minute},
	"dfs-std": {func() *world.World { return world.NewDFSHost(false) }, 10 * time.Second},
	"dfs-opt": {func() *world.World { return world.NewDFSHost(true) }, 10 * time.Second},
}

func main() {
	var (
		stack    = flag.String("stack", "kvfs", "ext4 | kvfs | dfs-std | dfs-opt | dfs-dpc")
		rw       = flag.String("rw", "randread", "randread | randwrite | randrw | seqread | seqwrite")
		bs       = flag.String("bs", "8k", "block size (e.g. 4k, 8k, 1m)")
		threads  = flag.Int("threads", 32, "concurrent closed-loop threads")
		runtime  = flag.Duration("runtime", 25*time.Millisecond, "measurement window (virtual time)")
		warmup   = flag.Duration("warmup", 5*time.Millisecond, "warmup window (virtual time)")
		fileMB   = flag.Int("filesize", 32, "per-file size in MB")
		files    = flag.Int("files", 4, "number of files")
		readPct  = flag.Int("rwmixread", 70, "read percentage for randrw")
		buffered = flag.Bool("buffered", false, "use the cache/buffered path instead of direct I/O")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
	)
	flag.Parse()

	ioSize, err := parseSize(*bs)
	if err != nil {
		log.Fatal(err)
	}
	fileSize := uint64(*fileMB) << 20

	gen, kindName := makeGen(*rw, ioSize, fileSize, *readPct)
	st, ok := stacks[*stack]
	if !ok {
		log.Fatalf("unknown stack %q", *stack)
	}
	w := st.build().Prefill(world.BigFileName, *files, fileSize, 0, st.settle)
	pt, err := world.Measure(w.M, *stack, kindName+" bs="+*bs, workload.Config{
		Threads: *threads, Warmup: *warmup, Measure: *runtime, Seed: *seed,
	}, gen, w.Do(!*buffered))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcfio:", err)
		os.Exit(1)
	}

	mode := "direct"
	if *buffered {
		mode = "buffered"
	}
	fmt.Printf("stack=%s rw=%s bs=%s threads=%d mode=%s window=%v\n",
		*stack, kindName, *bs, *threads, mode, *runtime)
	fmt.Printf("  ops      : %d (0 errors)\n", pt.Ops) // a failed op ended the run above
	fmt.Printf("  IOPS     : %.0f\n", pt.IOPS)
	fmt.Printf("  BW       : %.2f GB/s\n", pt.GBps)
	fmt.Printf("  lat mean : %v\n", pt.Mean)
	fmt.Printf("  lat p50  : %v\n", pt.P50)
	fmt.Printf("  lat p99  : %v\n", pt.P99)
	fmt.Printf("  lat max  : %v\n", pt.Max)
	fmt.Printf("  host CPU : %.2f cores\n", pt.HostCores)
	if w.Sys != nil {
		fmt.Printf("  DPU CPU  : %.2f cores\n", pt.DPUCores)
	}
	w.Stop()
}

func parseSize(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad block size %q", s)
	}
	return n * mult, nil
}

func makeGen(rw string, ioSize int, fileSize uint64, readPct int) (workload.Generator, string) {
	switch rw {
	case "randread":
		return workload.RandomGen(ioSize, fileSize, 100), "randread"
	case "randwrite":
		return workload.RandomGen(ioSize, fileSize, 0), "randwrite"
	case "randrw":
		return workload.RandomGen(ioSize, fileSize, readPct), fmt.Sprintf("randrw(%d%%rd)", readPct)
	case "seqread":
		return workload.SequentialGen(ioSize, fileSize, workload.Read), "seqread"
	case "seqwrite":
		return workload.SequentialGen(ioSize, fileSize, workload.Write), "seqwrite"
	default:
		fmt.Fprintf(os.Stderr, "unknown -rw %q\n", rw)
		os.Exit(1)
		return nil, ""
	}
}
