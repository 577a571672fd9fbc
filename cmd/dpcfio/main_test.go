package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var bin string // the dpcfio binary, built once for the package's tests

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpcfio-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "dpcfio")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestGoldenPerStack pins the default run (seed 1, 32 threads, 8K random
// reads over 4 x 32 MB) on each of the five stacks against the report
// captured before the stacks moved into internal/exp: ops, IOPS, every
// latency figure and the CPU cores are all virtual-time quantities, so any
// change to how a world is built or driven shows up here.
func TestGoldenPerStack(t *testing.T) {
	for _, stack := range []string{"ext4", "kvfs", "dfs-std", "dfs-opt", "dfs-dpc"} {
		t.Run(stack, func(t *testing.T) {
			t.Parallel()
			got, err := exec.Command(bin, "-stack", stack).Output()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", stack+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("dpcfio -stack %s differs from testdata/%s.golden:\n%s", stack, stack, got)
			}
		})
	}
}

func TestUnknownStackFails(t *testing.T) {
	if err := exec.Command(bin, "-stack", "zfs").Run(); err == nil {
		t.Error("dpcfio -stack zfs exited 0")
	}
}
