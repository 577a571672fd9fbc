package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var bin string // the dpctrace binary, built once for the package's tests

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpctrace-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "dpctrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGolden pins the whole default trace — every PCIe operation of the
// 8 KB write and read on both transports, with its virtual timestamp —
// against the output captured before the walks moved into internal/exp.
func TestGolden(t *testing.T) {
	got, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/dpctrace.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dpctrace output differs from testdata/dpctrace.golden:\n%s", got)
	}
}
