package main

import (
	"fmt"

	"dpc/internal/exp"
	"dpc/internal/obs"
	"dpc/internal/pcie"
)

// walkSize is the I/O size of the -walk traces: the paper's 8 KB example.
const walkSize = 8192

// printWalks is -walk: one 8 KB write and read through both transports —
// virtio-fs (DPFS) and nvme-fs (DPC) — listing every PCIe operation with its
// label, direction and size. It is the textual version of the paper's
// Figures 2(b) and 4.
func printWalks() error {
	for n, t := range []struct {
		title string
		walk  func(*obs.Obs, int, exp.Store) (exp.Walk, error)
	}{
		{"virtio-fs (DPFS path)", exp.VirtioWalk},
		{"nvme-fs (DPC path)", exp.NvmeWalk},
	} {
		if n > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s, %d-byte write+read ===\n", t.title, walkSize)
		w, err := t.walk(nil, walkSize, exp.StoreRAM)
		if err != nil {
			return err
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
	return nil
}
