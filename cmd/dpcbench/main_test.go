package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"dpc/internal/exp"
	"dpc/internal/fault"
	"dpc/internal/prof"
)

var bin string // the dpcbench binary, built once for the package's tests

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpcbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "dpcbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestListAndEnvGolden(t *testing.T) {
	for _, flag := range []string{"list", "env"} {
		checkFlagGolden(t, flag)
	}
}

// TestWalkGolden pins the whole -walk trace — every PCIe operation of the
// 8 KB write and read on both transports, with its virtual timestamp.
func TestWalkGolden(t *testing.T) {
	checkFlagGolden(t, "walk")
}

// checkFlagGolden runs `dpcbench -flag` and compares its output with
// testdata/flag.golden byte for byte.
func checkFlagGolden(t *testing.T, flag string) {
	t.Helper()
	got, err := exec.Command(bin, "-"+flag).Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", flag+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dpcbench -%s differs from testdata/%s.golden:\n%s", flag, flag, got)
	}
}

// TestScenarioMatchesCommittedArtifact runs one scenario through the binary
// and compares what it wrote with the committed artifact, byte for byte
// (`make bench-identical` does the same for all of them).
func TestScenarioMatchesCommittedArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smallio.json")
	if msg, err := exec.Command(bin, "-smallio-out", out).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_6.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dpcbench -smallio-out differs from BENCH_6.json:\n%s", got)
	}
}

// TestCommittedArtifactsAgree analyses the committed BENCH_trace.json
// offline and requires it to reproduce BENCH_5.json's attribution block
// exactly — groups, wait kinds, span count and anomalies. The trace does not
// carry the run's end instant, so the test takes it from
// BENCH_metrics.json: all three artifacts come from one profiled reference
// run and must agree with each other.
func TestCommittedArtifactsAgree(t *testing.T) {
	read := func(name string, v any) []byte {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			if err := json.Unmarshal(b, v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		return b
	}
	var metrics struct {
		SimTimeNs int64 `json:"sim_time_ns"`
	}
	var bench benchReport
	read("BENCH_metrics.json", &metrics)
	read("BENCH_5.json", &bench)
	spans, err := prof.ParsePerfetto(read("BENCH_trace.json", nil))
	if err != nil {
		t.Fatal(err)
	}
	got := newAttrSummary(prof.BuildReport(prof.Analyze(spans), metrics.SimTimeNs, 0, 0, 0))
	if !reflect.DeepEqual(got, bench.Attribution) {
		g, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("BENCH_trace.json analysed offline differs from BENCH_5.json's attribution:\n%s", g)
	}
}

// TestFailedOpWritesNoArtifact injects a failing op into the small-I/O
// scenario body — its own transport, with every SQE corrupted on the way to
// the TGT so each command exhausts its retries — and checks that the body
// returns the error (it used to print it and return zeros) and that the
// report writer then leaves no file behind. The ramp and fleet scenarios run
// under the same rule: their first op error must come back (they used to
// print it and digest an empty run), which is what makes main exit 1, and
// none of their outputs may exist.
func TestFailedOpWritesNoArtifact(t *testing.T) {
	corruptAll := []fault.Rule{{Site: fault.SiteTGT, Kind: fault.KindCorruptSQE}}
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	m, d := smallIODriver(0, nil)
	d.SetFaults(fault.New(m.Eng, corruptAll))
	for _, sc := range []struct {
		name  string
		run   func() error
		files []string
	}{
		{"smallio", func() error {
			_, err := writeReport(out("smallio.json"), func() (smallIORun, error) { return measureSmallIO(m, d, 0, 256) })
			return err
		}, []string{"smallio.json"}},
		{"ramp", func() error {
			return runRampScenario(out("ramp.json"), out("ramp-tl.json"), out("ramp-tr.json"), "", -1, corruptAll)
		}, []string{"ramp.json", "ramp-tl.json", "ramp-tr.json"}},
		{"fleet", func() error {
			return runFleetScenario(out("fleet.json"), out("fleet-tl.json"), corruptAll)
		}, []string{"fleet.json", "fleet-tl.json"}},
	} {
		err := sc.run()
		if err == nil {
			t.Errorf("%s: a scenario whose every op failed returned no error", sc.name)
		}
		t.Logf("%s scenario error: %v", sc.name, err)
		for _, f := range sc.files {
			if _, statErr := os.Stat(out(f)); !os.IsNotExist(statErr) {
				t.Errorf("%s: a failed scenario left %s behind (stat: %v)", sc.name, f, statErr)
			}
		}
	}
}

// TestFleetGates: each of the three isolation gates refuses a report that
// breaks it alone. The contended baseline is the scenario's earlier shape:
// 24 victim procs per tenant queued on one another, p999 1.39x the p50.
func TestFleetGates(t *testing.T) {
	report := func(p50, p999 int64, fifo, drr float64) fleetReport {
		return fleetReport{
			Phases:           []exp.FleetPhase{{Name: "baseline", VictimP50Ns: p50, VictimP999Ns: p999}},
			FifoOverBaseline: fifo,
			DrrOverBaseline:  drr,
		}
	}
	for _, c := range []struct {
		name string
		rep  fleetReport
		ok   bool
	}{
		{"isolated", report(112367, 114130, 3.70, 1.09), true},
		{"contended baseline", report(529045, 732857, 2.83, 0.99), false},
		{"drr leaks", report(112367, 114130, 3.70, 1.30), false},
		{"fifo shows nothing", report(112367, 114130, 1.00, 1.09), false},
	} {
		if err := checkFleetGates(c.rep); (err == nil) != c.ok {
			t.Errorf("%s: checkFleetGates = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
