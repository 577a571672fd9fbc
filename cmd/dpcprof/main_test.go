package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var bin, bench string // dpcprof and the dpcbench that writes its input, built once

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpcprof-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin, bench = filepath.Join(dir, "dpcprof"), filepath.Join(dir, "dpcbench")
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

// TestGolden pins the offline report over the profiled reference run's trace
// and metrics snapshot — attribution tables, wait kinds, slow-op digest,
// queue-depth gauges, latency quantiles and tracer health (which counts the
// registry's series) — against the output captured before the registry
// became an exporter of component-owned counters.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	trace, metrics := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	if msg, err := exec.Command(bench, "-prof-out", filepath.Join(dir, "p.json"),
		"-prof-trace-out", trace, "-prof-metrics-out", metrics).CombinedOutput(); err != nil {
		t.Fatalf("dpcbench -prof-out: %v\n%s", err, msg)
	}
	got, err := exec.Command(bin, "-trace", trace, "-metrics", metrics).Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/dpcprof.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dpcprof output differs from testdata/dpcprof.golden:\n%s", got)
	}
}
