package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is dpcreport; dir holds the artifacts one dpcbench run writes for every
// test: the ramp timeline (tl.json) and the profiled reference run's report,
// trace and metrics snapshot (p.json, t.json, m.json).
var bin, dir string

func TestMain(m *testing.M) {
	var err error
	if dir, err = os.MkdirTemp("", "dpcreport-test"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "dpcreport")
	bench := filepath.Join(dir, "dpcbench")
	for out, pkg := range map[string]string{bin: ".", bench: "../dpcbench"} {
		if msg, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, msg)
			os.Exit(1)
		}
	}
	if msg, err := exec.Command(bench, "-timeline-out", filepath.Join(dir, "tl.json"),
		"-prof-out", filepath.Join(dir, "p.json"), "-trace-out", filepath.Join(dir, "t.json"),
		"-metrics-out", filepath.Join(dir, "m.json")).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "dpcbench: %v\n%s", err, msg)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// checkGolden runs dpcreport with args and compares its stdout with
// testdata/<golden>.golden byte for byte.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	got, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dpcreport %v differs from testdata/%s.golden:\n%s", args, golden, got)
	}
}

// TestTimelineGolden pins three views of the ramp scenario's telemetry
// timeline — the overview, the series list, and one counter's per-tick rate
// column — against the output captured before the sampler read counters
// through the registry's exported names. The timeline is the one consumer of
// the per-counter rate columns that no committed BENCH artifact gates.
func TestTimelineGolden(t *testing.T) {
	tl := filepath.Join(dir, "tl.json")
	checkGolden(t, "overview", tl)
	checkGolden(t, "series", "-series", tl)
	checkGolden(t, "col-dmas-rate", "-col", "pcie.link.dmas:rate", tl)
}

// TestTraceGolden pins the offline report over the profiled reference run's
// trace and metrics snapshot — attribution tables, wait kinds, slow-op
// digest, queue-depth gauges, latency quantiles and tracer health (which
// counts the registry's series) — against the output captured before the
// registry became an exporter of component-owned counters.
func TestTraceGolden(t *testing.T) {
	checkGolden(t, "dpcprof", "-metrics", filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json"))
}

// TestSniff renders one artifact of each type through the binary, sniffed
// from its keys alone, and checks that a flag of another type's view is a
// usage error.
func TestSniff(t *testing.T) {
	for _, tc := range []struct {
		typ, file string
		args      []string
		exit      int
		first     string // prefix of the first output line
	}{
		{"metrics", "../../BENCH_metrics.json", nil, 0, "snapshot at 1s of virtual time"},
		{"trace", "../../BENCH_trace.json", nil, 0, "profile: "},
		{"profile", filepath.Join(dir, "p.json"), nil, 0, "profile: "},
		{"timeline", filepath.Join(dir, "tl.json"), nil, 0, "timeline: "},
		{"metrics", "../../BENCH_metrics.json", []string{"-series"}, 2, ""},
		{"profile", filepath.Join(dir, "p.json"), []string{"-json"}, 2, ""},
	} {
		raw, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if typ, err := artifactType(raw); typ != tc.typ || err != nil {
			t.Errorf("%s sniffed as %q (%v), want %q", tc.file, typ, err, tc.typ)
		}
		out, err := exec.Command(bin, append(tc.args, tc.file)...).Output()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != tc.exit || !strings.HasPrefix(string(out), tc.first) {
			t.Errorf("dpcreport %v %s: exit %d, want %d; output starts %.60q, want %q",
				tc.args, tc.file, exit, tc.exit, out, tc.first)
		}
	}
}

// droppedTimeline is a timeline whose retained violation list overflowed:
// two events kept, three more only counted.
const droppedTimeline = `{"sim_time_ns": 2000000,
  "series": {"interval_ns": 100000, "ticks": 20, "dropped_ticks": 0, "times_ns": [], "columns": {}},
  "slos": [{"spec": "p99(m) < 1us over 100us", "windows": 20, "violations": 5, "burn_rate": 0.25}],
  "violations": [
    {"time_ns": 100000, "spec": "p99(m) < 1us over 100us", "observed_ns": 2000, "samples": 4},
    {"time_ns": 200000, "spec": "p99(m) < 1us over 100us", "observed_ns": 3000, "samples": 4}],
  "dropped_violations": 3, "dumps": [], "dropped_dumps": 0}`

// TestDroppedViolations checks a timeline past the retained-violation cap
// says so in the overview, and that the diff counts the dropped events.
func TestDroppedViolations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	if err := os.WriteFile(path, []byte(droppedTimeline), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, path).Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "\nviolations (2, 3 dropped):\n") {
		t.Errorf("overview hides the dropped violations:\n%s", out)
	}

	none := strings.Replace(droppedTimeline, `"dropped_violations": 3`, `"dropped_violations": 0`, 1)
	diff, err := diffFiles([]byte(none), []byte(droppedTimeline), false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diff, "violation events +3 (2 -> 5)") {
		t.Errorf("timeline diff ignores dropped violations:\n%s", diff)
	}
}
