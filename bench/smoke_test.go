package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload, both its timed and its traced run, and
// every probe at 1/100 scale on the shrunken world: no op may fail, the
// virtual clock must repeat exactly, and every metric BENCHMARK.json
// declares must be printed by name and carried in the result line.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for trace, specs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--trace", string(rune('0' + trace)),
				"-scale", "0.01", "-reps", "2", "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v\n%s", w.Name, trace, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%v", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !strings.Contains(stdout.String(), "sim_repeat_exact=true") {
				t.Errorf("%s trace=%d: virtual clock did not repeat:\n%s", w.Name, trace, stdout.String())
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics in the result, %d declared", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%d: result lacks %s in %s", w.Name, trace, s.Name, s.Unit)
				}
				if !strings.Contains(stdout.String(), "\n  "+s.Name+" ") {
					t.Errorf("%s trace=%d: %s is not printed by name", w.Name, trace, s.Name)
				}
			}
			if trace == 0 {
				for _, s := range specs {
					if res.Metrics[s.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, res.Metrics[s.Name].Value)
					}
				}
			}
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// driver refuses a benchmark for, and against the workloads the code has.
func TestSpecWithinContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, s metricSpec, bounded bool) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("%s metric %+v is outside the contract", kind, s)
		}
		if seen[s.Name] {
			t.Errorf("name %s is used twice", s.Name)
		}
		seen[s.Name] = true
		if bounded != (s.Bound > 0) || s.Bound > 0.25 {
			t.Errorf("%s metric %s has bound %v", kind, s.Name, s.Bound)
		}
	}
	for _, s := range spec.EndToEnd {
		check("end-to-end", s, true)
	}
	for _, s := range spec.PerLayer {
		check("per-layer", s, false)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Errorf("%d workloads declared, %d defined", len(spec.Workloads), len(workloadDefs))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q: unknown, duplicate, or its why is not one short line", w.Name)
		}
		seen[w.Name] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "host_wall_us_per_op", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_ops_per_s", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		s            metricSpec
		a, b         float64
		repsA, repsB []float64
		want         string
	}{
		{lower, 100, 105, []float64{99, 100, 101}, []float64{104, 105, 106}, "same"},
		{lower, 100, 115, []float64{99, 100, 101}, []float64{114, 115, 116}, "worse"},
		{lower, 100, 85, []float64{99, 100, 101}, []float64{84, 85, 86}, "better"},
		{lower, 100, 105, []float64{90, 100, 110}, []float64{95, 105, 115}, "unresolved"},
		{lower, 100, 130, []float64{90, 100, 110}, []float64{120, 130, 140}, "worse"},
		{lower, 100, 70, []float64{90, 100, 110}, []float64{60, 70, 80}, "better"},
		{higher, 1000, 900, nil, nil, "worse"},
		{higher, 1000, 1100, nil, nil, "better"},
		{higher, 1000, 1000, nil, nil, "same"},
	} {
		if got, _ := verdict(c.s, c.a, c.b, c.repsA, c.repsB); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.s.Name, c.a, c.b, got, c.want)
		}
	}
}
