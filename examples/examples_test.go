// Package examples holds the golden-output test of the example programs.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestOutputGolden builds every example program and pins what each prints
// against testdata/<name>.golden. Every figure they print is virtual time or
// a modelled count, so the output is byte-deterministic.
func TestOutputGolden(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir() + string(filepath.Separator)
	args := []string{"build", "-o", bin}
	var names []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "testdata" {
			names = append(names, e.Name())
			args = append(args, "./"+e.Name())
		}
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			got, err := exec.Command(bin + name).Output()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", name, got)
			}
		})
	}
}
