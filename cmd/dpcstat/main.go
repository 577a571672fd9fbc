// Command dpcstat pretty-prints a metrics snapshot produced by
// `dpcbench -metrics-out` (the obs registry's JSON snapshot format):
// counters and gauges grouped by layer, histograms as one summary row each
// with p50/p95/p99 quantiles recomputed from the log-spaced buckets. To
// compare two snapshots, use dpcdiff.
//
// Usage:
//
//	dpcstat snapshot.json
//	dpcstat < snapshot.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"dpc/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dpcstat [snapshot.json]")
		flag.PrintDefaults()
	}
	flag.Parse()

	var (
		data []byte
		err  error
	)
	switch flag.NArg() {
	case 0:
		data, err = io.ReadAll(os.Stdin)
	case 1:
		data, err = os.ReadFile(flag.Arg(0))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcstat:", err)
		os.Exit(1)
	}

	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		fmt.Fprintln(os.Stderr, "dpcstat: not a metrics snapshot:", err)
		os.Exit(1)
	}
	render(os.Stdout, s)
}

// render writes the whole report; split from main so tests can pin the
// output byte-for-byte.
func render(w io.Writer, s obs.Snapshot) {
	fmt.Fprintf(w, "snapshot at %v of virtual time\n", time.Duration(s.SimTimeNs))

	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "\ncounters")
		printGrouped(w, sortedKeys(s.Counters), func(name string) string {
			return fmt.Sprintf("%d", s.Counters[name])
		})
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "\ngauges")
		printGrouped(w, sortedKeys(s.Gauges), func(name string) string {
			return fmt.Sprintf("%.4g", s.Gauges[name])
		})
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "\nhistograms")
		fmt.Fprintf(w, "  %-28s %8s %10s %10s %10s %10s %10s\n", "", "count", "p50", "p95", "p99", "max", "mean")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			mean := time.Duration(0)
			if h.Count > 0 {
				mean = time.Duration(h.SumNs / h.Count)
			}
			fmt.Fprintf(w, "  %-28s %8d %10v %10v %10v %10v %10v\n", name, h.Count,
				time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.95)),
				time.Duration(h.Quantile(0.99)), time.Duration(h.MaxNs), mean)
		}
	}
	if s.TracerDropped != nil || len(s.Series) > 0 {
		fmt.Fprintln(w, "\ntracer")
		if s.TracerDropped != nil {
			fmt.Fprintf(w, "  %-36s %12d\n", "dropped_spans", *s.TracerDropped)
		}
		for _, name := range sortedKeys(s.Series) {
			fmt.Fprintf(w, "  %-36s %12d\n", name, s.Series[name])
		}
	}
}

// printGrouped prints name/value lines with a blank line between layers (the
// first dot-separated segment of the metric name).
func printGrouped(w io.Writer, names []string, value func(string) string) {
	prevLayer := ""
	for _, name := range names {
		layer := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			layer = name[:i]
		}
		if prevLayer != "" && layer != prevLayer {
			fmt.Fprintln(w)
		}
		prevLayer = layer
		fmt.Fprintf(w, "  %-36s %12s\n", name, value(name))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
