// Command dpctrace traces a single 8 KB write and read through both
// transports — virtio-fs (DPFS) and nvme-fs (DPC) — printing every PCIe
// operation with its label, direction and size. Its output is the textual
// version of the paper's Figures 2(b) and 4.
package main

import (
	"flag"
	"fmt"
	"os"

	"dpc/internal/exp"
	"dpc/internal/pcie"
)

func main() {
	size := flag.Int("size", 8192, "I/O size in bytes")
	flag.Parse()

	fmt.Printf("=== virtio-fs (DPFS path), %d-byte write+read ===\n", *size)
	w, err := exp.VirtioWalk(nil, *size, false)
	printWalk(w, err)
	fmt.Printf("\n=== nvme-fs (DPC path), %d-byte write+read ===\n", *size)
	w, err = exp.NvmeWalk(nil, *size, false)
	printWalk(w, err)
}

// printWalk lists a walk's PCIe operations, numbered within each phase.
func printWalk(w exp.Walk, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpctrace:", err)
		os.Exit(1)
	}
	for _, phase := range []struct {
		name string
		evs  []pcie.Event
	}{{"write", w.Write}, {"read", w.Read}} {
		fmt.Printf("-- %s --\n", phase.name)
		for i, ev := range phase.evs {
			fmt.Printf("  %2d. [%8s] %-6s %-12s %5dB  @%v\n",
				i+1, ev.Op, ev.Dir, ev.Label, ev.Bytes, ev.At)
		}
		fmt.Printf("   %s total: %d PCIe ops\n", phase.name, len(phase.evs))
	}
}
