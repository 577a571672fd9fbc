package cache

import (
	"testing"

	"dpc/internal/sim/simtest"
)

// TestMain fails the package when a process coroutine of the simulation
// engine is still alive once every test has ended: some test built an
// engine it never shut down.
func TestMain(m *testing.M) {
	simtest.Main(m, "cache", "shut down every engine a test builds")
}
