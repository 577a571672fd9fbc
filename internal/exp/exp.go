// Package exp implements the paper's evaluation (§4): one experiment per
// table and figure, each rebuilding the workload, sweeping the paper's
// parameters and printing the same rows/series the paper reports. Absolute
// numbers come from the calibrated simulation; the claims being reproduced
// are the shapes (who wins, by what factor, where crossovers fall), which
// the experiment tests in this package assert.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dpc/internal/model"
	"dpc/internal/workload"
	"dpc/internal/world"
)

// Scale selects how long the measurement windows are and how many sweep
// points run. Quick keeps unit tests and `go test -bench` snappy; Full is
// what cmd/dpcbench uses for EXPERIMENTS.md.
type Scale int

const (
	Quick Scale = iota
	Full
)

// windows returns (warmup, measure) for the scale.
func (s Scale) windows() (time.Duration, time.Duration) {
	if s == Full {
		return 5 * time.Millisecond, 25 * time.Millisecond
	}
	return 2 * time.Millisecond, 8 * time.Millisecond
}

// threadSweep returns the concurrency ladder for the scale.
func (s Scale) threadSweep() []int {
	if s == Full {
		return []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	return []int{1, 8, 32, 128}
}

// measure is world.Measure for a figure: a failed op panics, naming the
// world and the case, so a figure never prints a rate that silently dropped
// ops.
func measure(m *model.Machine, name, kase string, cfg workload.Config, gen workload.Generator, do workload.Do) world.Point {
	pt, err := world.Measure(m, name, kase, cfg, gen, do)
	if err != nil {
		panic("exp: " + err.Error())
	}
	return pt
}

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Experiment is one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) []*Table
}

// All returns every experiment in paper order.
func All() []*Experiment {
	return []*Experiment{
		{ID: "fig1", Title: "Figure 1: standard vs optimized NFS client (motivation)", Run: RunFig1},
		{ID: "fig2", Title: "Figure 2(b): virtio-fs 8K write DMA walk", Run: RunFig2},
		{ID: "fig4", Title: "Figure 4: nvme-fs 8K write DMA walk", Run: RunFig4},
		{ID: "fig6", Title: "Figure 6: raw host-DPU transmission, virtio-fs vs nvme-fs", Run: RunFig6},
		{ID: "bw1", Title: "§4.1: raw transmission bandwidth (1MB, 16 threads)", Run: RunBW1},
		{ID: "fig7", Title: "Figure 7: Ext4 vs KVFS latency / IOPS / host CPU", Run: RunFig7},
		{ID: "fig8", Title: "Figure 8: hybrid cache contribution to IOPS", Run: RunFig8},
		{ID: "tab2", Title: "Table 2: Ext4 vs KVFS sequential bandwidth", Run: RunTable2},
		{ID: "fig9", Title: "Figure 9: DFS clients: NFS vs NFS+opt vs NFS+DPC", Run: RunFig9},
		{ID: "abl1", Title: "Ablation: nvme-fs queue count", Run: RunAblationQueues},
		{ID: "abl2", Title: "Ablation: cache placement (hybrid vs DPU-only vs off)", Run: RunAblationCachePlacement},
		{ID: "abl3", Title: "Ablation: prefetch depth", Run: RunAblationPrefetch},
		{ID: "abl4", Title: "Ablation: EC placement (host vs DPU vs server)", Run: RunAblationECPlacement},
		{ID: "abl5", Title: "Ablation: DPU-side transforms (compression + DIF)", Run: RunAblationTransforms},
		{ID: "abl6", Title: "Ablation: cache replacement policy (CLOCK vs FIFO)", Run: RunAblationReplacement},
	}
}

// ByID finds an experiment.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// fmtDur renders a duration in microseconds with one decimal.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1000)
}

// fmtIOPS renders operations per second compactly.
func fmtIOPS(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fmtGBps renders bandwidth.
func fmtGBps(v float64) string { return fmt.Sprintf("%.2fGB/s", v) }

// fmtCores renders CPU usage in cores.
func fmtCores(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtPct renders a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
