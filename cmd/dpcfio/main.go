// Command dpcfio is a fio/vdbench-style workload driver for every stack in
// the repository: local Ext4, DPC's standalone KVFS, and the three DFS
// clients (the pre-filled worlds of internal/exp). It runs ad-hoc
// experiments outside the fixed paper sweeps.
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

	"dpc/internal/exp"
	"dpc/internal/workload"
)

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
	st, err := exp.NewStack(*stack, *files, fileSize)
	if err != nil {
		log.Fatal(err)
	}

	st.HostCPU.Mark()
	if st.DPUCPU != nil {
		st.DPUCPU.Mark()
	}
	res := workload.Run(st.Eng, workload.Config{
		Threads: *threads, Warmup: *warmup, Measure: *runtime, Seed: *seed,
	}, gen, st.Do(!*buffered))

	mode := "direct"
	if *buffered {
		mode = "buffered"
	}
	fmt.Printf("stack=%s rw=%s bs=%s threads=%d mode=%s window=%v\n",
		*stack, kindName, *bs, *threads, mode, *runtime)
	fmt.Printf("  ops      : %d (%d errors)\n", res.Ops, res.Errors)
	fmt.Printf("  IOPS     : %.0f\n", res.IOPS())
	fmt.Printf("  BW       : %.2f GB/s\n", res.GBps())
	fmt.Printf("  lat mean : %v\n", res.Lat.Mean())
	fmt.Printf("  lat p50  : %v\n", res.Lat.Percentile(50))
	fmt.Printf("  lat p99  : %v\n", res.Lat.Percentile(99))
	fmt.Printf("  lat max  : %v\n", res.Lat.Max())
	fmt.Printf("  host CPU : %.2f cores\n", st.HostCPU.CoresUsed())
	if st.DPUCPU != nil {
		fmt.Printf("  DPU CPU  : %.2f cores\n", st.DPUCPU.CoresUsed())
	}
	st.Stop()
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
