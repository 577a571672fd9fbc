package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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
// reads over 4 x 32 MB) on each of the five stacks internal/world builds:
// ops, IOPS, every latency figure and the CPU cores are all virtual-time
// quantities, so any change to how a world is built or driven shows up here.
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

// TestFailedOpFailsTheRun: DFS writes must be whole 8 KiB blocks, so every
// 4 KiB write to dfs-std fails. The run must report no rate over the ops
// that survived: it exits non-zero with one line naming the stack and the
// failed-op count.
func TestFailedOpFailsTheRun(t *testing.T) {
	cmd := exec.Command(bin, "-stack", "dfs-std", "-rw", "randwrite", "-bs", "4k", "-runtime", "2ms", "-files", "1", "-filesize", "4")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("a run with failed ops exited 0:\n%s", out)
	}
	if len(out) > 0 {
		t.Errorf("a run with failed ops printed a report:\n%s", out)
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "dfs-std") || !strings.Contains(msg, "191 of 378 ops failed") {
		t.Errorf("stderr %q is not one line naming the stack and the failed-op count", msg)
	}
}
