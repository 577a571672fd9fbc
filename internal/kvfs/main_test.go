package kvfs

import (
	"testing"

	"dpc/internal/sim/simtest"
)

// TestMain fails the package when a process coroutine of the simulation
// engine is still alive once every test has ended: some test built a machine
// it never shut down (newTestFS registers the Shutdown; a test that builds
// its machine by hand shuts it down itself).
func TestMain(m *testing.M) {
	simtest.Main(m, "kvfs", "build test machines with newTestFS")
}
