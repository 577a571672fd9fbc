package fabric

import (
	"math/rand"
	"testing"
	"time"

	"dpc/internal/sim"
)

// wire is the three ways a message leaves a node, so one script can drive
// the fabric and its reference model.
type wire struct {
	send  func(p *sim.Proc, from, dst *Node, port string, payload any, bytes int)
	call  func(p *sim.Proc, from, dst *Node, port string, req any, bytes int) any
	reply func(p *sim.Proc, rpc *RPC, server *Node, resp any, bytes int)
}

var clockWire = wire{
	send: func(p *sim.Proc, from, dst *Node, port string, payload any, bytes int) {
		from.Send(p, dst, port, payload, bytes)
	},
	call: func(p *sim.Proc, from, dst *Node, port string, req any, bytes int) any {
		return from.Call(p, dst, port, req, bytes)
	},
	reply: func(p *sim.Proc, rpc *RPC, server *Node, resp any, bytes int) {
		rpc.Reply(p, server, resp, bytes)
	},
}

// refWire is the reference model: each NIC's transmit side a one-unit FIFO
// resource the sender queues for and holds while it sleeps its
// serialization, delivery computed when the sender wakes, and a fresh
// envelope and reply mailbox per call. departs counts the departures per
// (receiver, instant), so a script can reject schedules in which two
// messages leave for one node at once: which of them queues first at the
// receiver is the tie order the clocks change.
func refWire(net *Network, departs map[*Node]map[sim.Time]int) wire {
	tx := map[*Node]*sim.Resource{}
	transmit := func(p *sim.Proc, from, dst *Node, mb *sim.Mailbox[Message], payload any, bytes int) {
		ser := time.Duration(int64(bytes) * int64(time.Second) / net.cfg.NICBps)
		r := tx[from]
		if r == nil {
			r = sim.NewResource(net.eng, from.name+"-tx", 1)
			tx[from] = r
		}
		r.Acquire(p)
		p.Sleep(ser)
		r.Release()
		net.Messages.Inc()
		net.BytesSent.Add(int64(bytes))
		if departs[dst] == nil {
			departs[dst] = map[sim.Time]int{}
		}
		departs[dst][p.Now()]++
		arrival := max(p.Now()+sim.Time(net.cfg.PropDelay), dst.rxBusyUntil) + sim.Time(ser)
		dst.rxBusyUntil = arrival
		net.eng.Schedule(arrival, func() { mb.TrySend(Message{From: from, Payload: payload, Bytes: bytes}) })
	}
	return wire{
		send: func(p *sim.Proc, from, dst *Node, port string, payload any, bytes int) {
			transmit(p, from, dst, dst.Listen(port), payload, bytes)
		},
		call: func(p *sim.Proc, from, dst *Node, port string, req any, bytes int) any {
			env := &RPC{From: from, Req: req, ReqBytes: bytes, reply: sim.NewMailbox[Message](net.eng, from.name+"-reply", 0)}
			transmit(p, from, dst, dst.Listen(port), env, bytes)
			return env.reply.Recv(p).Payload
		},
		reply: func(p *sim.Proc, rpc *RPC, server *Node, resp any, bytes int) {
			transmit(p, server, rpc.From, rpc.reply, resp, bytes)
		},
	}
}

// fanInScript is one random schedule: several sender nodes, each with a few
// processes, fan Sends and Calls in to one hub node. The hub answers every
// call after a service time of its own.
type fanInScript struct {
	senders int
	ops     []fanInOp
}

type fanInOp struct {
	node    int
	at      sim.Time
	call    bool
	bytes   int
	service time.Duration // hub's work before it replies
	reply   int           // reply size
}

func randomFanIn(rng *rand.Rand) fanInScript {
	s := fanInScript{senders: 2 + rng.Intn(5)}
	for i, n := 0, 1+rng.Intn(60); i < n; i++ {
		s.ops = append(s.ops, fanInOp{
			node:    rng.Intn(s.senders),
			at:      sim.Time(rng.Intn(50) * 1000), // few distinct instants: same-instant issues
			call:    rng.Intn(2) == 0,
			bytes:   64 + rng.Intn(1<<16),
			service: time.Duration(rng.Intn(4000)),
			reply:   64 + rng.Intn(1<<14),
		})
	}
	return s
}

// run plays the script and returns, per op, the instant its message reached
// the hub's receiver (a Send) or its reply reached the caller (a Call).
func (s fanInScript) run(ref bool) (done []sim.Time, collided bool) {
	e := sim.NewEngine(1)
	net := testNet(e)
	hub := net.NewNode("hub")
	var senders []*Node
	for i := 0; i < s.senders; i++ {
		senders = append(senders, net.NewNode(string(rune('a'+i))))
	}
	w := clockWire
	departs := map[*Node]map[sim.Time]int{}
	if ref {
		w = refWire(net, departs)
	}
	done = make([]sim.Time, len(s.ops))
	e.Go("hub-msg", func(p *sim.Proc) {
		for {
			m := hub.Listen("msg").Recv(p)
			done[m.Payload.(int)] = p.Now()
		}
	})
	e.Go("hub-rpc", func(p *sim.Proc) {
		for {
			rpc := RecvRPC(p, hub.Listen("rpc"))
			op := s.ops[rpc.Req.(int)]
			p.Sleep(op.service)
			w.reply(p, rpc, hub, rpc.Req, op.reply)
		}
	})
	for i, op := range s.ops {
		e.Go("op", func(p *sim.Proc) {
			p.SleepUntil(op.at)
			from := senders[op.node]
			if !op.call {
				w.send(p, from, hub, "msg", i, op.bytes)
				return
			}
			if got := w.call(p, from, hub, "rpc", i, op.bytes); got != i {
				panic("reply to the wrong call")
			}
			done[i] = p.Now()
		})
	}
	e.Run()
	e.Shutdown()
	for _, at := range departs {
		for _, n := range at {
			collided = collided || n > 1
		}
	}
	return done, collided
}

// TestFabricClocksMatchResources drives the tx clocks and departure events
// and the resource model with the same random fan-in schedules: every
// message reaches its receiver at the same instant.
func TestFabricClocksMatchResources(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for sched := 0; checked < 200; sched++ {
		s := randomFanIn(rng)
		want, collided := s.run(true)
		if collided {
			continue
		}
		checked++
		got, _ := s.run(false)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("schedule %d: op %d %+v done at %v, resource model %v", sched, i, s.ops[i], got[i], want[i])
			}
		}
	}
}

// tick keeps an event pending every nanosecond until *stop, so no sleep
// below can advance the clock in place: every wait is a park.
func tick(e *sim.Engine, stop *bool) {
	if !*stop {
		e.After(time.Nanosecond, func() { tick(e, stop) })
	}
}

// TestCallParksOnce: a call to an idle server parks its caller once, on the
// reply; its request's serialization costs no wake of its own.
func TestCallParksOnce(t *testing.T) {
	e := sim.NewEngine(1)
	n := testNet(e)
	client, server := n.NewNode("client"), n.NewNode("server")
	var serverParks int64
	e.Go("server", func(p *sim.Proc) {
		rpc := RecvRPC(p, server.Listen("echo"))
		before := e.Parks
		rpc.Reply(p, server, nil, 4096)
		serverParks = e.Parks - before
	})
	var callerParks int64
	stop := false
	e.Go("client", func(p *sim.Proc) {
		tick(e, &stop)
		before := e.Parks
		client.Call(p, server, "echo", nil, 4096)
		callerParks = e.Parks - before - serverParks
		stop = true
	})
	e.Run()
	if callerParks != 1 {
		t.Fatalf("Call parked its caller %d times, want 1", callerParks)
	}
}

// TestSendParksAtMostOnce: a Send queued behind another on its NIC parks
// its sender once, until its last bit leaves.
func TestSendParksAtMostOnce(t *testing.T) {
	e := sim.NewEngine(1)
	n := testNet(e)
	a, b := n.NewNode("a"), n.NewNode("b")
	stop := false
	tick(e, &stop)
	e.Go("first", func(p *sim.Proc) { a.Send(p, b, "svc", 1, 100_000) })
	var parks int64
	var done sim.Time
	e.Go("second", func(p *sim.Proc) {
		before := e.Parks
		a.Send(p, b, "svc", 2, 100_000)
		parks, done = e.Parks-before, p.Now()
		stop = true
	})
	e.Run()
	if parks != 1 || done != sim.Time(20*time.Microsecond) {
		t.Fatalf("queued Send parked %d times and returned at %v, want once, at 20µs", parks, done)
	}
}

// TestCallRoundTripZeroAllocs: with nil payloads, a round trip reuses its
// envelope, reply mailbox and flights and allocates nothing.
func TestCallRoundTripZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	n := testNet(e)
	client, server := n.NewNode("client"), n.NewNode("server")
	e.Go("server", func(p *sim.Proc) {
		port := server.Listen("echo")
		for {
			RecvRPC(p, port).Reply(p, server, nil, 64)
		}
	})
	calls := 0
	e.Go("client", func(p *sim.Proc) {
		for {
			client.Call(p, server, "echo", nil, 64)
			calls++
		}
	})
	roundTrip := func() {
		for want := calls + 1; calls < want; {
			e.RunUntil(e.Now() + sim.Time(sim.Microsecond))
		}
	}
	for i := 0; i < 16; i++ {
		roundTrip()
	}
	if a := testing.AllocsPerRun(100, roundTrip); a != 0 {
		t.Fatalf("%v allocs per round trip, want 0", a)
	}
}
