package nvmefs

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpc/internal/model"
)

// TestMain fails the package when a process carrier of the simulation engine
// is still alive once every test has ended: some test built a machine it
// never shut down. A driver's TGT threads and its idle nvme-workers stay
// parked for the machine's lifetime, so every test machine comes from
// newTestMachine, which registers the Shutdown.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := liveCarriers(); code == 0 && n > 0 {
		fmt.Fprintf(os.Stderr, "nvmefs: %d carrier goroutines outlived their tests (build test machines with newTestMachine)\n", n)
		code = 1
	}
	os.Exit(code)
}

// newTestMachine builds a machine that is shut down when t ends.
func newTestMachine(t *testing.T, cfg model.Config) *model.Machine {
	t.Helper()
	m := model.NewMachine(cfg)
	t.Cleanup(m.Eng.Shutdown)
	return m
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
