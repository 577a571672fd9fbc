package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestAtMatchesSleeper: a chain of events scheduled with At dispatches at
// the same (at, seq) points as a process sleeping with SleepUntil through
// the same instants, while other processes sleep around it. The steps cover
// a target not after now (At runs it at once, a SleepUntil returns without a
// sequence number) and a lone tail, where the sleeper advances the clock in
// place and the chain's event is the next one popped.
func TestAtMatchesSleeper(t *testing.T) {
	steps := []Time{3, 0, 4, 4, -2, 1, 7, 0, 2, 30, 5, 40}
	run := func(chain bool) []string {
		e := newTestEngine(t, 1)
		var log []string
		note := func(who string) { log = append(log, fmt.Sprintf("%s@%d#%d", who, e.now, e.seq)) }
		for _, period := range []Time{2, 5} {
			e.Go("other", func(p *Proc) {
				for range 8 {
					note(fmt.Sprint("other", period))
					p.SleepUntil(p.Now() + period)
				}
			})
		}
		if chain {
			var step func()
			i := 0
			step = func() {
				note("subject")
				if i < len(steps) {
					i++
					e.At(e.now+steps[i-1], step)
				}
			}
			e.Schedule(0, step)
		} else {
			e.Go("subject", func(p *Proc) {
				for _, d := range steps {
					note("subject")
					p.SleepUntil(p.Now() + d)
				}
				note("subject")
			})
		}
		e.Run()
		return log
	}
	sleeper, chain := run(false), run(true)
	if !slices.Equal(sleeper, chain) {
		t.Fatalf("dispatch logs differ:\nsleeper %v\nchain   %v", sleeper, chain)
	}
	if n := len(sleeper); n != 16+len(steps)+1 {
		t.Fatalf("%d log entries", n)
	}
}
