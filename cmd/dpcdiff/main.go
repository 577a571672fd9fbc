// Command dpcdiff compares two exported observability artifacts and
// attributes the delta: profile reports (dpcbench -prof-out) are diffed per
// op and per component via prof.Diff, metric
// snapshots (dpcbench -metrics-out, dpcstat input) via obs.DiffSnapshots,
// and telemetry timelines (dpcbench -timeline-out) at the SLO/violation
// level. The artifact type is sniffed from the JSON shape, so the one
// command answers "what regressed between these two runs and why":
//
//	dpcdiff BENCH_prof_before.json BENCH_prof_after.json
//	dpcdiff -json old_metrics.json new_metrics.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/telemetry"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (profile diffs only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dpcdiff [-json] A.json B.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	a, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcdiff:", err)
		os.Exit(1)
	}
	b, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcdiff:", err)
		os.Exit(1)
	}
	out, err := diffFiles(a, b, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpcdiff:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// diffFiles sniffs the artifact type from A's top-level keys and renders the
// appropriate diff. Both files must be the same artifact type.
func diffFiles(a, b []byte, jsonOut bool) (string, error) {
	ka, err := topKeys(a)
	if err != nil {
		return "", fmt.Errorf("parsing A: %w", err)
	}
	kb, err := topKeys(b)
	if err != nil {
		return "", fmt.Errorf("parsing B: %w", err)
	}
	ta, tb := artifactType(ka), artifactType(kb)
	if ta == "" {
		return "", fmt.Errorf("A is not a recognized artifact (profile report, metrics snapshot, or telemetry timeline)")
	}
	if ta != tb {
		return "", fmt.Errorf("artifact types differ: A is a %s, B is a %s", ta, tb)
	}
	switch ta {
	case "profile":
		return diffProfiles(a, b, jsonOut)
	case "metrics":
		return diffMetrics(a, b)
	default:
		return diffTimelines(a, b)
	}
}

func topKeys(raw []byte) (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m, nil
}

func artifactType(keys map[string]json.RawMessage) string {
	_, comps := keys["components"]
	_, ops := keys["ops"]
	if comps && ops {
		return "profile"
	}
	if _, ok := keys["counters"]; ok {
		return "metrics"
	}
	_, series := keys["series"]
	_, slos := keys["slos"]
	if series && slos {
		return "timeline"
	}
	return ""
}

func diffProfiles(a, b []byte, jsonOut bool) (string, error) {
	var ra, rb prof.Report
	if err := json.Unmarshal(a, &ra); err != nil {
		return "", fmt.Errorf("parsing profile A: %w", err)
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return "", fmt.Errorf("parsing profile B: %w", err)
	}
	d, err := prof.Diff(&ra, &rb)
	if err != nil {
		return "", err
	}
	if jsonOut {
		j, err := d.JSON()
		if err != nil {
			return "", err
		}
		return string(j), nil
	}
	return d.Text(), nil
}

func diffMetrics(a, b []byte) (string, error) {
	var sa, sb obs.Snapshot
	if err := json.Unmarshal(a, &sa); err != nil {
		return "", fmt.Errorf("parsing snapshot A: %w", err)
	}
	if err := json.Unmarshal(b, &sb); err != nil {
		return "", fmt.Errorf("parsing snapshot B: %w", err)
	}
	return obs.DiffSnapshots(sa, sb), nil
}

// timelineDoc is the subset of the telemetry export the diff reads.
type timelineDoc struct {
	SimTimeNs int64 `json:"sim_time_ns"`
	Series    *struct {
		IntervalNs   int64 `json:"interval_ns"`
		Ticks        int   `json:"ticks"`
		DroppedTicks int64 `json:"dropped_ticks"`
	} `json:"series"`
	SLOs       []telemetrySLO        `json:"slos"`
	Violations []telemetry.Violation `json:"violations"`
	Dumps      []json.RawMessage     `json:"dumps"`
}

type telemetrySLO struct {
	Spec       string  `json:"spec"`
	Windows    int64   `json:"windows"`
	Violations int64   `json:"violations"`
	BurnRate   float64 `json:"burn_rate"`
}

func diffTimelines(a, b []byte) (string, error) {
	var da, db timelineDoc
	if err := json.Unmarshal(a, &da); err != nil {
		return "", fmt.Errorf("parsing timeline A: %w", err)
	}
	if err := json.Unmarshal(b, &db); err != nil {
		return "", fmt.Errorf("parsing timeline B: %w", err)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "timeline diff (B - A): sim time %+d ns\n", db.SimTimeNs-da.SimTimeNs)
	if da.Series != nil && db.Series != nil {
		fmt.Fprintf(&out, "ticks %+d, dropped %+d\n",
			db.Series.Ticks-da.Series.Ticks, db.Series.DroppedTicks-da.Series.DroppedTicks)
	}

	slosA := map[string]telemetrySLO{}
	for _, s := range da.SLOs {
		slosA[s.Spec] = s
	}
	specs := map[string]bool{}
	var lines []string
	for _, s := range db.SLOs {
		specs[s.Spec] = true
		sa, ok := slosA[s.Spec]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("%-40s (only in B) violations %d", s.Spec, s.Violations))
		case s.Violations != sa.Violations || s.BurnRate != sa.BurnRate:
			lines = append(lines, fmt.Sprintf("%-40s violations %+d (%d -> %d), burn %g -> %g",
				s.Spec, s.Violations-sa.Violations, sa.Violations, s.Violations, sa.BurnRate, s.BurnRate))
		}
	}
	for _, s := range da.SLOs {
		if !specs[s.Spec] {
			lines = append(lines, fmt.Sprintf("%-40s (only in A) violations %d", s.Spec, s.Violations))
		}
	}
	sort.Strings(lines)
	if len(lines) > 0 {
		out.WriteString("\n== slos ==\n")
		for _, l := range lines {
			out.WriteString(l)
			out.WriteByte('\n')
		}
	}
	if dv := len(db.Violations) - len(da.Violations); dv != 0 {
		fmt.Fprintf(&out, "\nviolation events %+d (%d -> %d)\n", dv, len(da.Violations), len(db.Violations))
	}
	if dd := len(db.Dumps) - len(da.Dumps); dd != 0 {
		fmt.Fprintf(&out, "flight-recorder dumps %+d (%d -> %d)\n", dd, len(da.Dumps), len(db.Dumps))
	}
	return out.String(), nil
}
