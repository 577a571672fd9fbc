package sim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newTestEngine is NewEngine for a test or benchmark: the engine's Shutdown
// runs when tb ends, so none of its carriers outlives it. Every engine this
// package's tests build comes from here.
func newTestEngine(tb testing.TB, seed int64) *Engine {
	e := NewEngine(seed)
	tb.Cleanup(e.Shutdown)
	return e
}

// TestMain fails the package when a process carrier is still alive once
// every test has ended: some test built an engine it never shut down, and
// its parked carriers would skew the goroutine counts later tests read.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := liveCarriers(); code == 0 && n > 0 {
		fmt.Fprintf(os.Stderr, "sim: %d carrier goroutines outlived their tests (build test engines with newTestEngine)\n", n)
		code = 1
	}
	os.Exit(code)
}

// liveCarriers counts the goroutines running a carrier, giving stopped ones
// up to two seconds to exit: they do so on their own schedule.
func liveCarriers() int {
	deadline := time.Now().Add(2 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		live := strings.Count(string(buf[:n]), "sim.(*carrier).loop")
		if live == 0 || time.Now().After(deadline) {
			return live
		}
		time.Sleep(time.Millisecond)
	}
}
