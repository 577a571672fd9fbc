package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// verdict applies one metric's direction and bound to a pair of runs. worse
// is the relative change of the median in the metric's bad direction. When
// the reps inside either run spread wider than the bound, a change of the
// bound's size cannot be told from noise: the pair is unresolved unless
// every rep of one run beats every rep of the other.
func verdict(s metricSpec, a, b float64, repsA, repsB []float64) (string, float64) {
	sign := 1.0
	if s.Better == "higher" {
		sign = -1
	}
	worse := sign * (b - a) / math.Abs(a)
	if math.Max(relSpread(repsA), relSpread(repsB)) > s.Bound {
		aLo, aHi := minMax(repsA)
		bLo, bHi := minMax(repsB)
		if sign < 0 {
			aLo, aHi, bLo, bHi = -aHi, -aLo, -bHi, -bLo
		}
		switch {
		case bLo > aHi:
			return "worse", worse
		case bHi < aLo:
			return "better", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > s.Bound:
		return "worse", worse
	case worse < -s.Bound:
		return "better", worse
	}
	return "same", worse
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// relSpread is (max-min)/median of one run's reps; 0 when there are none
// (virtual-clock metrics have one exact value).
func relSpread(reps []float64) float64 {
	if len(reps) < 2 {
		return 0
	}
	lo, hi := minMax(reps)
	return (hi - lo) / median(reps)
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, then every per-layer count that is not bit-identical.
// Exit status 1 when any row is "worse".
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResult(pathA)
	b, errB := loadResult(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(stderr, "bench:", errors.Join(errA, errB))
		return 2
	}
	return compareResults(spec, a, b, stdout)
}

func compareResults(spec *benchSpec, a, b *resultFile, out io.Writer) int {
	status := 0
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d, %d): virtual-clock values are not expected to be identical\n", a.Seed, b.Seed)
	}
	fmt.Fprintf(out, "%-13s %-26s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "worse by", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := a.Timed[w.Name], b.Timed[w.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-13s missing from one file\n", w.Name)
			status = 1
			continue
		}
		for _, s := range spec.EndToEnd {
			va, vb := ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value
			v, worse := verdict(s, va, vb, ra.Reps[s.Name], rb.Reps[s.Name])
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(out, "%-13s %-26s %14.6g %14.6g %+8.2f%%  %s\n", w.Name, s.Name, va, vb, worse*100, v)
		}
	}
	fmt.Fprintln(out, "per-layer metrics from the traced run that are not bit-identical (host-time probes excluded):")
	for _, w := range spec.Workloads {
		ra, rb := a.PerLayer[w.Name], b.PerLayer[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, name := range ra.Exact {
			if va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value; va != vb {
				fmt.Fprintf(out, "%-13s %-38s %14.6g %14.6g\n", w.Name, name, va, vb)
			}
		}
	}
	return status
}
