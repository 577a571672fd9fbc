package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var bin, bench string // dpcmon and the dpcbench that writes its input, built once

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpcmon-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin, bench = filepath.Join(dir, "dpcmon"), filepath.Join(dir, "dpcbench")
	for out, pkg := range map[string]string{bin: ".", bench: "../dpcbench"} {
		if msg, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, msg)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGolden pins three views of the ramp scenario's telemetry timeline — the
// overview, the series list, and one counter's per-tick rate column — against
// the output captured before the sampler read counters through the registry's
// exported names. The timeline is the one consumer of the per-counter rate
// columns that no committed BENCH artifact gates.
func TestGolden(t *testing.T) {
	timeline := filepath.Join(t.TempDir(), "tl.json")
	if msg, err := exec.Command(bench, "-timeline-out", timeline).CombinedOutput(); err != nil {
		t.Fatalf("dpcbench -timeline-out: %v\n%s", err, msg)
	}
	for golden, args := range map[string][]string{
		"overview":      nil,
		"series":        {"-series"},
		"col-dmas-rate": {"-col", "pcie.link.dmas:rate"},
	} {
		got, err := exec.Command(bin, append([]string{"-timeline", timeline}, args...)...).Output()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("dpcmon %v differs from testdata/%s.golden:\n%s", args, golden, got)
		}
	}
}
