package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestScriptGolden runs every shell command once through -c, errors and an
// unknown command included, and pins the whole transcript: names, inode
// numbers, sizes and the virtual clock after one second of drain per line.
func TestScriptGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dpcsh")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	script := "help; mkdir /docs; write /docs/a.txt hello dpc; cat /docs/a.txt; stat /docs/a.txt; stat /docs; " +
		"ls /; ls /docs; mv /docs/a.txt /docs/b.txt; cat /docs/a.txt; ls /docs; rm /docs/b.txt; rmdir /docs; " +
		"ls /; time; frob"
	got, err := exec.Command(bin, "-c", script).Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/dpcsh.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dpcsh output differs from testdata/dpcsh.golden:\n%s", got)
	}
}
