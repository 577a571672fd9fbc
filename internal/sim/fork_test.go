package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// handJoin is the join Fork replaced: spawn n processes that count down to a
// Broadcast on a Cond the caller waits on.
func handJoin(p *Proc, name string, n int, body func(c *Proc, i int)) {
	left := n
	done := NewCond(p.eng, "join")
	for i := range n {
		p.eng.Go(name, func(c *Proc) {
			body(c, i)
			if left--; left == 0 {
				done.Broadcast()
			}
		})
	}
	for left > 0 {
		done.Wait(p)
	}
}

// joinWorld runs a parent that joins n children at 1µs beside a bystander
// that ticks every 1µs, so the join's events meet others at the same
// instants. It returns each step as "time proc what seq", seq being the
// engine's last sequence number, and the engine's counters.
func joinWorld(t testing.TB, n int, join func(p *Proc, name string, n int, body func(c *Proc, i int))) ([]string, [4]int64) {
	e := newTestEngine(t, 1)
	var log []string
	note := func(p *Proc, what string) {
		log = append(log, fmt.Sprintf("%d %s %s %d", p.Now(), p.Name(), what, e.seq))
	}
	durs := []time.Duration{3 * Microsecond, Microsecond, 2 * Microsecond}
	e.Go("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		note(p, "fork")
		join(p, "child", n, func(c *Proc, i int) {
			note(c, fmt.Sprintf("start%d", i))
			c.Sleep(durs[i])
			note(c, fmt.Sprintf("end%d", i))
		})
		note(p, "joined")
	})
	e.Go("bystander", func(p *Proc) {
		for range 5 {
			p.Sleep(Microsecond)
			note(p, "tick")
		}
	})
	e.Run()
	return log, [4]int64{e.Parks, e.HeapPushes, e.FIFOPops, e.InPlace}
}

// TestForkMatchesHandRolledJoin: Fork leaves the event log of the
// count-down join it replaced, sequence numbers and engine counters
// included. Its children start in index order at the fork instant, and the
// parent resumes once, at the last child's return.
func TestForkMatchesHandRolledJoin(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			got, gotCounts := joinWorld(t, n, (*Proc).Fork)
			want, wantCounts := joinWorld(t, n, handJoin)
			if !slices.Equal(got, want) {
				t.Fatalf("event log differs:\nFork:\n%s\nhand-rolled:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if gotCounts != wantCounts {
				t.Fatalf("Parks, HeapPushes, FIFOPops, InPlace = %v, hand-rolled %v", gotCounts, wantCounts)
			}

			var starts []string
			joined, lastEnd := 0, ""
			for _, line := range got {
				f := strings.Fields(line)
				switch at, what := f[0], f[2]; {
				case strings.HasPrefix(what, "start"):
					starts = append(starts, at+" "+what)
				case strings.HasPrefix(what, "end"):
					lastEnd = at
				case what == "joined":
					joined++
					if n > 0 && at != lastEnd {
						t.Errorf("parent resumed at %s, last child returned at %s", at, lastEnd)
					}
				}
			}
			var wantStarts []string
			for i := range n {
				wantStarts = append(wantStarts, fmt.Sprintf("1000 start%d", i))
			}
			if !slices.Equal(starts, wantStarts) {
				t.Errorf("children started %v, want %v", starts, wantStarts)
			}
			if joined != 1 {
				t.Errorf("parent resumed %d times", joined)
			}
		})
	}
}
