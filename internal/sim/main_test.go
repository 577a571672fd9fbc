package sim

import (
	"testing"

	"dpc/internal/sim/simtest"
)

// newTestEngine is NewEngine for a test or benchmark: the engine's Shutdown
// runs when tb ends, so none of its process coroutines outlives it. Every
// engine this package's tests build comes from here.
func newTestEngine(tb testing.TB, seed int64) *Engine {
	e := NewEngine(seed)
	tb.Cleanup(e.Shutdown)
	return e
}

// TestMain fails the package when a process coroutine is still alive once
// every test has ended: some test built an engine it never shut down.
func TestMain(m *testing.M) {
	simtest.Main(m, "sim", "build test engines with newTestEngine")
}
