package fabric

import (
	"testing"
	"time"

	"dpc/internal/sim"
)

func testNet(e *sim.Engine) *Network {
	return NewNetwork(e, Config{
		PropDelay: 5 * time.Microsecond,
		NICBps:    10_000_000_000, // 10 GB/s => 1 byte = 0.1ns
	})
}

func TestSendDelivers(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	n := testNet(e)
	a, b := n.NewNode("a"), n.NewNode("b")
	var got Message
	var at sim.Time
	e.Go("recv", func(p *sim.Proc) {
		got = b.Listen("svc").Recv(p)
		at = p.Now()
	})
	e.Go("send", func(p *sim.Proc) {
		a.Send(p, b, "svc", "hello", 1000)
	})
	e.Run()
	if got.Payload != "hello" || got.From != a || got.Bytes != 1000 {
		t.Fatalf("got = %+v", got)
	}
	// 1000B at 10GB/s = 100ns tx serialization + 5µs prop + 100ns rx
	// serialization.
	want := sim.Time(200 + 5*time.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestNICSerializes(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	n := testNet(e)
	a, b := n.NewNode("a"), n.NewNode("b")
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			b.Listen("svc").Recv(p)
		}
	})
	var sendDone sim.Time
	e.Go("s1", func(p *sim.Proc) { a.Send(p, b, "svc", 1, 100_000) })
	e.Go("s2", func(p *sim.Proc) {
		a.Send(p, b, "svc", 2, 100_000)
		sendDone = p.Now()
	})
	e.Run()
	// Two 100KB messages at 10GB/s = 10µs each, serialized on a's NIC.
	if sendDone != sim.Time(20*time.Microsecond) {
		t.Fatalf("second send finished at %v, want 20µs", sendDone)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	n := testNet(e)
	client, server := n.NewNode("client"), n.NewNode("server")
	e.Go("server", func(p *sim.Proc) {
		port := server.Listen("echo")
		for {
			rpc := RecvRPC(p, port)
			rpc.Reply(p, server, rpc.Req.(int)*10, 64)
		}
	})
	var resp any
	var rtt sim.Time
	e.Go("client", func(p *sim.Proc) {
		start := p.Now()
		resp = client.Call(p, server, "echo", 7, 64)
		rtt = p.Now() - start
	})
	e.Run()
	e.Shutdown()
	if resp != 70 {
		t.Fatalf("resp = %v", resp)
	}
	// Two flights of ~5µs each plus tiny serialization.
	if rtt < sim.Time(10*time.Microsecond) || rtt > sim.Time(11*time.Microsecond) {
		t.Fatalf("rtt = %v", rtt)
	}
	if n.Messages.Total() != 2 {
		t.Fatalf("Messages = %d", n.Messages.Total())
	}
}

func TestConcurrentRPCs(t *testing.T) {
	e := sim.NewEngine(1)
	n := testNet(e)
	client, server := n.NewNode("c"), n.NewNode("s")
	e.Go("server", func(p *sim.Proc) {
		port := server.Listen("work")
		for {
			rpc := RecvRPC(p, port)
			p.Sleep(10 * time.Microsecond)
			rpc.Reply(p, server, rpc.Req, 16)
		}
	})
	got := map[int]bool{}
	for i := 0; i < 5; i++ {
		i := i
		e.Go("client", func(p *sim.Proc) {
			r := client.Call(p, server, "work", i, 16)
			got[r.(int)] = true
		})
	}
	e.Run()
	e.Shutdown()
	if len(got) != 5 {
		t.Fatalf("responses = %v", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := testNet(e)
	n.NewNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	n.NewNode("x")
}
