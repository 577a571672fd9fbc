package sim

import (
	"testing"
	"time"
)

// TestTickerIdleStops checks the property the telemetry sampler depends on:
// a ticker fires on its grid for as long as other work is pending, then
// stops itself so plain Run() still drains.
func TestTickerIdleStops(t *testing.T) {
	e := NewEngine(1)
	var fireTimes []Time
	tk := e.NewTicker(100*time.Microsecond, func(now Time) {
		fireTimes = append(fireTimes, now)
	})
	e.Go("work", func(p *Proc) {
		p.Sleep(350 * time.Microsecond)
	})
	e.Run() // must terminate: the ticker stops once only its wake-ups remain

	if !tk.stopped {
		t.Error("ticker still live after Run drained")
	}
	// Work ends at 350us; the 100/200/300us ticks see it pending, the 400us
	// tick fires once more and finds nothing else, so it stops.
	want := []Time{100_000, 200_000, 300_000, 400_000}
	if len(fireTimes) != len(want) {
		t.Fatalf("fired at %v, want %v", fireTimes, want)
	}
	for i, at := range want {
		if fireTimes[i] != at {
			t.Errorf("fire %d at %d, want %d", i, fireTimes[i], at)
		}
	}
}

// TestTickerStop checks an explicit Stop ends the cadence immediately.
func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	var tk *Ticker
	tk = e.NewTicker(time.Microsecond, func(now Time) {
		fires++
		if fires == 3 {
			tk.Stop()
		}
	})
	e.Go("work", func(p *Proc) {
		p.Sleep(time.Millisecond)
	})
	e.Run()
	if fires != 3 {
		t.Errorf("fired %d times after Stop at 3", fires)
	}
}

// TestTickerRejectsBadInterval checks the zero-interval guard.
func TestTickerRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTicker(0) did not panic")
		}
	}()
	NewEngine(1).NewTicker(0, func(Time) {})
}
