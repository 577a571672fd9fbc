package main

import (
	"fmt"
	"sort"
	"strings"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/telemetry"
)

// diffFiles compares two artifacts of the same type and attributes the
// delta: profile reports per op and per component via prof.Diff (jsonOut
// prints its JSON form), metric snapshots via obs.DiffSnapshots, and
// telemetry timelines at the SLO/violation level.
func diffFiles(a, b []byte, jsonOut bool) (string, error) {
	ta, err := artifactType(a)
	if err != nil {
		return "", fmt.Errorf("A: %w", err)
	}
	tb, err := artifactType(b)
	if err != nil {
		return "", fmt.Errorf("B: %w", err)
	}
	if ta != tb {
		return "", fmt.Errorf("artifact types differ: A is a %s, B is a %s", ta, tb)
	}
	switch ta {
	case "profile":
		return diffProfiles(a, b, jsonOut)
	case "metrics":
		return diffMetrics(a, b)
	case "timeline":
		return diffTimelines(a, b)
	}
	return "", fmt.Errorf("%s files do not diff: diff the profile reports (dpcbench -prof-out) of the two runs", ta)
}

// decodePair decodes A and B into the type their writer encodes.
func decodePair[T any](a, b []byte) (*T, *T, error) {
	va, err := decode[T](a)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing A: %w", err)
	}
	vb, err := decode[T](b)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing B: %w", err)
	}
	return va, vb, nil
}

func diffProfiles(a, b []byte, jsonOut bool) (string, error) {
	ra, rb, err := decodePair[prof.Report](a, b)
	if err != nil {
		return "", err
	}
	d, err := prof.Diff(ra, rb)
	if err != nil {
		return "", err
	}
	if jsonOut {
		j, err := d.JSON()
		return string(j), err
	}
	return d.Text(), nil
}

func diffMetrics(a, b []byte) (string, error) {
	sa, sb, err := decodePair[obs.Snapshot](a, b)
	if err != nil {
		return "", err
	}
	return obs.DiffSnapshots(*sa, *sb), nil
}

// diffTimelines compares run length, the SLO ledgers and the violation and
// dump counts. Violation events count retained plus dropped, so a run whose
// retained list overflowed still compares by its true count.
func diffTimelines(a, b []byte) (string, error) {
	da, db, err := decodePair[telemetry.Timeline](a, b)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "timeline diff (B - A): sim time %+d ns\n", db.SimTimeNs-da.SimTimeNs)
	fmt.Fprintf(&out, "ticks %+d, dropped %+d\n",
		db.Series.Ticks-da.Series.Ticks, db.Series.DroppedTicks-da.Series.DroppedTicks)

	slosA := map[string]telemetry.SLOSummary{}
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
	va := int64(len(da.Violations)) + da.DroppedViolations
	vb := int64(len(db.Violations)) + db.DroppedViolations
	if vb != va {
		fmt.Fprintf(&out, "\nviolation events %+d (%d -> %d)\n", vb-va, va, vb)
	}
	if dd := len(db.Dumps) - len(da.Dumps); dd != 0 {
		fmt.Fprintf(&out, "flight-recorder dumps %+d (%d -> %d)\n", dd, len(da.Dumps), len(db.Dumps))
	}
	return out.String(), nil
}
