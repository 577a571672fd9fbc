package simtest

import (
	"testing"
	"time"

	"dpc/internal/sim"
)

func TestMain(m *testing.M) { Main(m, "simtest", "shut down every engine a test builds") }

// The probe must see a process coroutine, parked or free, or every package's
// check passes vacuously; once Shutdown stops them it must see none.
func TestProcsAliveCountsParkedAndFree(t *testing.T) {
	e := sim.NewEngine(1)
	never := sim.NewCond(e, "never")
	e.Go("parked", func(p *sim.Proc) { never.Wait(p) })
	e.Go("free", func(p *sim.Proc) {})
	e.Run()
	if n := procsAlive(); n != 2 {
		e.Shutdown()
		t.Fatalf("%d live process coroutines with one parked and one free, want 2", n)
	}
	e.Shutdown()
	for end := time.Now().Add(2 * time.Second); procsAlive() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d live process coroutines after Shutdown, want 0", procsAlive())
		}
	}
}
