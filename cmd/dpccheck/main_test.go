package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dpc/internal/check"
)

var bin string // the dpccheck binary, built once for the package's tests

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpccheck-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "dpccheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs each mode of the binary once, short: a plain and a fault
// torture over one stack of each kind the table describes (cache only,
// cache + inline + WAL, the offloaded DFS client), and a crash sweep.
func TestSmoke(t *testing.T) {
	const stacks = "kvfs-cache,kvfs-inline-wal,dfs-dpc"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"plain", []string{"-stacks", stacks, "-seeds", "1", "-ops", "300"}, "ok: 3 stacks x 1 seeds x 300 ops diverged nowhere\n"},
		{"faults", []string{"-faults", "-stacks", stacks, "-seeds", "1", "-ops", "300"}, "ok: 3 stacks x 1 seeds x 300 ops diverged nowhere\n"},
		{"crash", []string{"-crash", "-seeds", "1", "-points", "2"}, "ok: 1 seeds x 2 crash points recovered every durability promise\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("dpccheck %v: %v\n%s", tc.args, err, out)
			}
			if !strings.HasSuffix(string(out), tc.want) {
				t.Errorf("dpccheck %v printed:\n%swant it to end with:\n%s", tc.args, out, tc.want)
			}
		})
	}
}

// TestUnknownStackNamesTheValidOnes: a stack the mode cannot run exits
// non-zero and lists the ones it can.
func TestUnknownStackNamesTheValidOnes(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		valid []string
	}{
		{[]string{"-stacks", "zfs", "-seeds", "1", "-ops", "10"}, check.StackNames()},
		{[]string{"-faults", "-stacks", "localfs", "-seeds", "1", "-ops", "10"}, check.FaultStackNames()},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("dpccheck %v exited 0:\n%s", tc.args, out)
		}
		if want := fmt.Sprint(tc.valid); !strings.Contains(string(out), want) {
			t.Errorf("dpccheck %v does not name the valid stacks %s:\n%s", tc.args, want, out)
		}
	}
}
