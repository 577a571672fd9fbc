package sim

import (
	"testing"
	"testing/quick"
)

func TestMailboxSendThenRecv(t *testing.T) {
	e := newTestEngine(t, 1)
	m := NewMailbox[int](e, "m", 0)
	var got []int
	e.Go("sender", func(p *Proc) {
		for i := 0; i < 3; i++ {
			m.Send(p, i)
		}
	})
	e.Go("receiver", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Recv(p))
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got = %v", got)
	}
}

func TestMailboxRecvBlocksUntilSend(t *testing.T) {
	e := newTestEngine(t, 1)
	m := NewMailbox[string](e, "m", 0)
	var at Time
	var msg string
	e.Go("receiver", func(p *Proc) {
		msg = m.Recv(p)
		at = p.Now()
	})
	e.Go("sender", func(p *Proc) {
		p.Sleep(100)
		m.Send(p, "hello")
	})
	e.Run()
	if msg != "hello" || at != 100 {
		t.Fatalf("msg=%q at=%v, want hello at 100", msg, at)
	}
}

func TestMailboxMultipleReceiversFIFO(t *testing.T) {
	e := newTestEngine(t, 1)
	m := NewMailbox[int](e, "m", 0)
	got := make(map[string]int)
	e.Go("r1", func(p *Proc) { got["r1"] = m.Recv(p) })
	e.Go("r2", func(p *Proc) { got["r2"] = m.Recv(p) })
	e.Go("sender", func(p *Proc) {
		p.Sleep(10)
		m.Send(p, 1)
		m.Send(p, 2)
	})
	e.Run()
	if got["r1"] != 1 || got["r2"] != 2 {
		t.Fatalf("got = %v, want r1:1 r2:2", got)
	}
}

// TestMailboxSendOnFullPanics: no sender waits for room. A bounded mailbox
// is a doorbell rung with TrySend; Send on a full one is a bug.
func TestMailboxSendOnFullPanics(t *testing.T) {
	e := newTestEngine(t, 1)
	m := NewMailbox[int](e, "m", 1)
	var recovered any
	e.Go("sender", func(p *Proc) {
		m.Send(p, 1) // fills the buffer
		defer func() { recovered = recover() }()
		m.Send(p, 2)
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Send on a full bounded mailbox returned")
	}
	if m.Len() != 1 || m.Sent != 1 {
		t.Fatalf("len %d, sent %d after the refused send, want 1 and 1", m.Len(), m.Sent)
	}
}

func TestMailboxTrySend(t *testing.T) {
	e := newTestEngine(t, 1)
	m := NewMailbox[int](e, "m", 1)
	if !m.TrySend(7) {
		t.Fatal("TrySend on empty bounded mailbox failed")
	}
	if m.TrySend(8) {
		t.Fatal("TrySend on full mailbox succeeded")
	}
	if m.Len() != 1 || m.buf[0] != 7 {
		t.Fatalf("queued %v, want [7]", m.buf)
	}
}

func TestMailboxServerLoop(t *testing.T) {
	// A classic request/reply server over mailboxes.
	type req struct {
		x     int
		reply *Mailbox[int]
	}
	e := newTestEngine(t, 1)
	in := NewMailbox[req](e, "in", 0)
	e.Go("server", func(p *Proc) {
		for {
			r := in.Recv(p)
			p.Sleep(10)
			r.reply.Send(p, r.x*2)
		}
	})
	var results []int
	for i := 1; i <= 3; i++ {
		i := i
		e.Go("client", func(p *Proc) {
			reply := NewMailbox[int](e, "reply", 0)
			in.Send(p, req{x: i, reply: reply})
			results = append(results, reply.Recv(p))
		})
	}
	e.Run()
	e.Shutdown()
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	sum := 0
	for _, r := range results {
		sum += r
	}
	if sum != 12 {
		t.Fatalf("sum = %d, want 12", sum)
	}
}

// Property: a mailbox delivers every message exactly once, in order, for any
// interleaving of sender/receiver delays.
func TestMailboxOrderProperty(t *testing.T) {
	f := func(sendGaps, recvGaps []uint8) bool {
		n := len(sendGaps)
		if n == 0 {
			return true
		}
		if n > 32 {
			n = 32
		}
		e := newTestEngine(t, 3)
		m := NewMailbox[int](e, "m", 0)
		var got []int
		e.Go("sender", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Time(sendGaps[i]).Sub(0))
				m.Send(p, i)
			}
		})
		e.Go("receiver", func(p *Proc) {
			for i := 0; i < n; i++ {
				if i < len(recvGaps) {
					p.Sleep(Time(recvGaps[i]).Sub(0))
				}
				got = append(got, m.Recv(p))
			}
		})
		e.Run()
		if len(got) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i] != i {
				return false
			}
		}
		return m.Sent == int64(n) && m.Received == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := newTestEngine(t, 1)
	c := NewCond(e, "c")
	var woke []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Go("signaller", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
		p.Sleep(10)
		c.Broadcast()
	})
	e.Run()
	if len(woke) != 3 || woke[0] != "a" {
		t.Fatalf("woke = %v", woke)
	}
	if len(c.waiters) != 0 {
		t.Fatalf("%d waiters left", len(c.waiters))
	}
}
