package world

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/workload"
)

// TestMeasureFailsOnAFailedOp: nothing may report a rate that silently
// dropped ops, so one failed op in the window fails it, naming the world and
// the case.
func TestMeasureFailsOnAFailedOp(t *testing.T) {
	m := model.NewMachine(model.Default())
	defer m.Eng.Shutdown()
	failed := false
	do := func(p *sim.Proc, tid int, a workload.Access) error {
		p.Sleep(time.Microsecond)
		if !failed {
			failed = true
			return errors.New("injected")
		}
		return nil
	}
	pt, err := Measure(m, "test-world", "one bad op", workload.Config{Threads: 1, Measure: time.Millisecond, Seed: 1},
		workload.RandomGen(4096, 1<<20, 100), do)
	if err == nil {
		t.Fatalf("Measure returned %+v despite a failed op", pt)
	}
	if msg := err.Error(); !strings.Contains(msg, "test-world") || !strings.Contains(msg, "one bad op") || !strings.Contains(msg, "1 of") {
		t.Errorf("error %q does not name the world, the case and the failure", msg)
	}
}
