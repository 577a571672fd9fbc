// dfsoffload runs the same distributed-file workload through the three
// fs-client flavors of the paper's Figure 9 — the standard NFS-style
// client, the host-side optimized client (client-side EC + direct I/O +
// delegations) and DPC (the same optimizations offloaded to the DPU) — and
// prints the throughput/host-CPU tradeoff each one makes.
package main

import (
	"fmt"
	"log"
	"time"

	"dpc"
	"dpc/internal/sim"
	"dpc/internal/workload"
	"dpc/internal/world"
)

const (
	fileSize = 8 << 20
	ioSize   = 8192
	threads  = 32
)

func main() {
	fmt.Printf("%-16s %12s %12s %12s\n", "client", "write IOPS", "read IOPS", "host cores")

	run(world.NewDFSHost(false))
	run(world.NewDFSHost(true))
	// Direct I/O, apples-to-apples with the host clients: no hybrid cache.
	run(world.NewDPC("NFS+DPC", func(o *dpc.Options) { o.EnableKVFS, o.EnableDFS, o.CachePages = false, true, 0 }))

	fmt.Println("\nThe optimized client buys its IOPS with host CPU; DPC buys")
	fmt.Println("the same IOPS with DPU cycles, leaving the host to the")
	fmt.Println("application. That is the paper's core claim.")
}

// run creates one file on w within the first second, preallocates it with
// direct 1 MB writes, settles the world for 10 s, then measures 8K random
// direct writes (with the host cores they use) and 8K random direct reads
// over it.
func run(w *world.World) {
	var err error
	w.Big = make([]uint64, 1)
	w.M.Eng.Go("create", func(p *sim.Proc) { w.Big[0], err = w.FS.Create(p, 0, "/data") })
	w.M.Eng.RunUntil(sim.Time(time.Second))
	if err != nil {
		log.Fatal(err)
	}
	w.M.Eng.Go("setup", func(p *sim.Proc) {
		chunk := make([]byte, 1<<20)
		for off := uint64(0); off < fileSize; off += 1 << 20 {
			if err := w.FS.Write(p, 0, w.Big[0], off, chunk, true); err != nil {
				log.Fatal(err)
			}
		}
	})
	w.M.Eng.RunUntil(w.M.Eng.Now() + sim.Time(10*time.Second))

	cfg := workload.Config{Threads: threads, Warmup: 2 * time.Millisecond, Measure: 10 * time.Millisecond, Seed: 1}
	wr, err := world.Measure(w.M, w.Name, "8K random write", cfg, workload.RandomGen(ioSize, fileSize, 0), w.Do(true))
	if err != nil {
		log.Fatal(err)
	}
	rd, err := world.Measure(w.M, w.Name, "8K random read", cfg, workload.RandomGen(ioSize, fileSize, 100), w.Do(true))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %12.0f %12.0f %12.1f\n", w.Name, wr.IOPS, rd.IOPS, wr.HostCores)
	w.Stop()
}
