package nvmefs

import (
	"testing"

	"dpc/internal/model"
	"dpc/internal/sim/simtest"
)

// TestMain fails the package when a process coroutine of the simulation
// engine is still alive once every test has ended: some test built a machine
// it never shut down. A driver's TGT threads stay parked for the machine's
// lifetime, and every finished nvme-worker keeps its coroutine on the
// engine's free list, so every test machine comes from newTestMachine, which
// registers the Shutdown.
func TestMain(m *testing.M) {
	simtest.Main(m, "nvmefs", "build test machines with newTestMachine")
}

// newTestMachine builds a machine that is shut down when t ends.
func newTestMachine(t *testing.T, cfg model.Config) *model.Machine {
	t.Helper()
	m := model.NewMachine(cfg)
	t.Cleanup(m.Eng.Shutdown)
	return m
}
