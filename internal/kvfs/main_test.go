package kvfs

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a process carrier of the simulation engine
// is still alive once every test has ended: some test built a machine it
// never shut down (newTestFS registers the Shutdown; a test that builds its
// machine by hand shuts it down itself).
func TestMain(m *testing.M) {
	code := m.Run()
	if n := liveCarriers(); code == 0 && n > 0 {
		fmt.Fprintf(os.Stderr, "kvfs: %d carrier goroutines outlived their tests (build test machines with newTestFS)\n", n)
		code = 1
	}
	os.Exit(code)
}

// liveCarriers counts the goroutines running an engine carrier, giving
// stopped ones up to two seconds to exit: they do so on their own schedule.
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
