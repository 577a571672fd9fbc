// Package simtest holds the check the tests of every package that runs
// simulation engines share: no engine outlives them.
package simtest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs m's tests, then fails pkg when a process coroutine of an engine
// is still alive two seconds on (a stopped one exits on its own schedule):
// some test built an engine it never shut down. hint says how pkg's tests
// build engines that are shut down. Call it as the package's TestMain.
//
//dpclint:ok the TestMain of each package whose tests run engines calls it
func Main(m *testing.M, pkg, hint string) {
	code := m.Run()
	live := procsAlive()
	for end := time.Now().Add(2 * time.Second); live > 0 && time.Now().Before(end); live = procsAlive() {
		time.Sleep(time.Millisecond)
	}
	if code == 0 && live > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d process coroutines outlived their tests (%s)\n", pkg, live, hint)
		code = 1
	}
	os.Exit(code)
}

// procsAlive counts the goroutines running a process coroutine, parked or
// free: each sits in sim.(*Proc).loop until its engine's Shutdown.
func procsAlive() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	return strings.Count(string(buf[:n]), "dpc/internal/sim.(*Proc).loop")
}
