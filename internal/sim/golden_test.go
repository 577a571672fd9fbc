package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenScript runs one fixed scenario that mixes every way a process can
// park and be woken — Sleep, Yield, Cond Signal and Broadcast, a bounded
// Mailbox whose full buffer parks the sender on a Cond until the receiver
// makes room, a contended Resource, a self-rescheduling tick, a plain
// event tied with a wake, a child spawned mid-run — over RunUntil in two
// slices, and returns the (time, proc, step) log.
func goldenScript(t testing.TB) []string {
	e := newTestEngine(t, 1)
	var log []string
	rec := func(who, step string) {
		log = append(log, fmt.Sprintf("%d %s %s", e.Now(), who, step))
	}

	cores := NewResource(e, "cores", 2)
	mb := NewMailbox[int](e, "mb", 1)
	room := NewCond(e, "room")
	gate := NewCond(e, "gate")
	open := false

	tickEvery(e, 3*Microsecond, func(Time) { rec("ticker", "tick") })

	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		hold := time.Duration(2*(i+1)) * Microsecond
		e.Go(name, func(p *Proc) {
			cores.Acquire(p)
			rec(name, "acquired")
			p.Sleep(hold)
			cores.Release()
			rec(name, "released")
			p.Yield()
			rec(name, "yielded")
			for !open {
				gate.Wait(p)
				rec(name, "woke")
			}
			rec(name, "through")
		})
	}

	e.Go("prod", func(p *Proc) {
		for i := 0; i < 4; i++ {
			for !mb.TrySend(i) {
				room.Wait(p)
			}
			rec("prod", fmt.Sprintf("sent%d", i))
			p.Sleep(Microsecond)
		}
	})
	e.Go("cons", func(p *Proc) {
		p.Sleep(4 * Microsecond)
		for i := 0; i < 4; i++ {
			rec("cons", fmt.Sprintf("recv%d", mb.Recv(p)))
			room.Signal()
			p.Sleep(2 * Microsecond)
		}
		open = true
		gate.Broadcast()
		rec("cons", "opened")
	})
	e.Go("sig", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		gate.Signal()
		rec("sig", "signalled")
		e.Go("child", func(p *Proc) {
			rec("child", "start")
			p.SleepUntil(Time(9 * Microsecond))
			rec("child", "end")
		})
		rec("sig", "spawned")
	})
	e.Schedule(Time(4*Microsecond), func() { rec("event", "fired") })

	e.RunUntil(Time(7 * Microsecond))
	rec("main", fmt.Sprintf("slice1 pending=%d", e.PendingEvents()))
	e.Run()
	rec("main", fmt.Sprintf("slice2 pending=%d", e.PendingEvents()))
	e.Shutdown()
	return log
}

// goldenLog was recorded from goldenScript on the channel-based engine (the
// parent of the coroutine rewrite): any engine change that reorders wake-ups
// or shifts virtual time shows here as a diff.
var goldenLog = []string{
	"0 w0 acquired",
	"0 w1 acquired",
	"0 prod sent0",
	"2000 w0 released",
	"2000 w2 acquired",
	"2000 w0 yielded",
	"3000 ticker tick",
	"4000 event fired",
	"4000 w1 released",
	"4000 cons recv0",
	"4000 w1 yielded",
	"4000 prod sent1",
	"5000 sig signalled",
	"5000 sig spawned",
	"5000 w0 woke",
	"5000 child start",
	"6000 ticker tick",
	"6000 cons recv1",
	"6000 prod sent2",
	"7000 main slice1 pending=4",
	"8000 w2 released",
	"8000 cons recv2",
	"8000 w2 yielded",
	"8000 prod sent3",
	"9000 child end",
	"9000 ticker tick",
	"10000 cons recv3",
	"12000 ticker tick",
	"12000 cons opened",
	"12000 w1 woke",
	"12000 w1 through",
	"12000 w0 woke",
	"12000 w0 through",
	"12000 w2 woke",
	"12000 w2 through",
	"15000 ticker tick",
	"15000 main slice2 pending=0",
}

func TestGoldenInterleaving(t *testing.T) {
	got := goldenScript(t)
	if strings.Join(got, "\n") != strings.Join(goldenLog, "\n") {
		t.Fatalf("interleaving changed:\n got:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(goldenLog, "\n"))
	}
}
