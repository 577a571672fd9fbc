// Package fabric models the datacenter network between the application
// server (or its DPU) and disaggregated storage: an RDMA-capable fabric with
// propagation delay and per-node NIC bandwidth. It provides node endpoints,
// one-way messages and a blocking RPC helper used by the KV store and DFS
// backends.
package fabric

import (
	"fmt"
	"time"

	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Config is the fabric cost model.
//
//dpclint:params
type Config struct {
	// PropDelay is the one-way propagation + switching delay.
	PropDelay time.Duration
	// NICBps is per-node NIC bandwidth (100 GbE RoCE ≈ 12.5 GB/s).
	NICBps int64
}

// DefaultConfig models a 100 Gb RoCE fabric with ~5 µs one-way delay.
func DefaultConfig() Config {
	return Config{PropDelay: 5 * time.Microsecond, NICBps: 12_500_000_000}
}

// Network is a set of nodes joined by the fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes map[string]*Node

	Messages  stats.Counter
	BytesSent stats.Counter
}

// NewNetwork creates an empty network.
func NewNetwork(eng *sim.Engine, cfg Config) *Network {
	if cfg.NICBps <= 0 {
		panic(fmt.Sprintf("fabric: bad config %+v", cfg))
	}
	return &Network{eng: eng, cfg: cfg, nodes: map[string]*Node{}}
}

// Config returns the fabric cost model.
func (n *Network) Config() Config { return n.cfg }

// Node is a network endpoint with its own NIC.
type Node struct {
	net   *Network
	name  string
	tx    *sim.Resource
	ports map[string]*sim.Mailbox[Message]
	// rxBusyUntil models receive-side NIC serialization analytically:
	// arrivals queue behind each other at the receiver's line rate, so a
	// node's ingress cannot exceed NICBps no matter how many senders fan
	// in.
	rxBusyUntil sim.Time
}

// NewNode registers a node. Node names must be unique.
func (n *Network) NewNode(name string) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	nd := &Node{
		net:   n,
		name:  name,
		tx:    sim.NewResource(n.eng, name+"-tx", 1),
		ports: map[string]*sim.Mailbox[Message]{},
	}
	n.nodes[name] = nd
	return nd
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// Message is a delivered payload.
type Message struct {
	From    *Node
	Payload any
	Bytes   int
}

// Listen returns (creating on first use) the mailbox for a named port.
func (nd *Node) Listen(port string) *sim.Mailbox[Message] {
	mb, ok := nd.ports[port]
	if !ok {
		mb = sim.NewMailbox[Message](nd.net.eng, nd.name+":"+port, 0)
		nd.ports[port] = mb
	}
	return mb
}

// Send transmits payload to a port on dst, charging sender NIC serialization
// plus propagation delay. The sender blocks only for its own serialization;
// delivery happens asynchronously after the propagation delay (receive-side
// serialization is folded into the NIC bandwidth charge).
func (nd *Node) Send(p *sim.Proc, dst *Node, port string, payload any, bytes int) {
	if bytes < 0 {
		panic("fabric: negative message size")
	}
	ser := time.Duration(int64(bytes) * int64(time.Second) / nd.net.cfg.NICBps)
	nd.tx.Acquire(p, 1)
	p.Sleep(ser)
	nd.tx.Release(1)
	nd.net.Messages.Inc()
	nd.net.BytesSent.Add(int64(bytes))
	deliver(nd.net, nd, dst, port, payload, bytes, ser)
}

// deliver schedules arrival after the propagation delay, queueing behind
// earlier arrivals at the receiver's line rate.
func deliver(net *Network, from, dst *Node, port string, payload any, bytes int, ser time.Duration) {
	mb := dst.Listen(port)
	arrival := net.eng.Now() + sim.Time(net.cfg.PropDelay)
	if dst.rxBusyUntil > arrival {
		arrival = dst.rxBusyUntil
	}
	arrival += sim.Time(ser)
	dst.rxBusyUntil = arrival
	net.eng.Schedule(arrival, func() {
		mb.TrySend(Message{From: from, Payload: payload, Bytes: bytes})
	})
}

// RPC is a request envelope carrying its own reply channel.
type RPC struct {
	From     *Node
	Req      any
	ReqBytes int
	reply    *sim.Mailbox[Message]
}

// Call sends req to a port on dst and blocks until the server replies,
// returning the response payload.
func (nd *Node) Call(p *sim.Proc, dst *Node, port string, req any, reqBytes int) any {
	reply := sim.NewMailbox[Message](nd.net.eng, nd.name+"-reply", 0)
	env := &RPC{From: nd, Req: req, ReqBytes: reqBytes, reply: reply}
	nd.Send(p, dst, port, env, reqBytes)
	msg := reply.Recv(p)
	return msg.Payload
}

// Reply answers an RPC, charging the server's NIC, the return flight and
// the caller's receive-side serialization. server is the node executing the
// handler.
func (r *RPC) Reply(p *sim.Proc, server *Node, resp any, respBytes int) {
	ser := time.Duration(int64(respBytes) * int64(time.Second) / server.net.cfg.NICBps)
	server.tx.Acquire(p, 1)
	p.Sleep(ser)
	server.tx.Release(1)
	server.net.Messages.Inc()
	server.net.BytesSent.Add(int64(respBytes))
	mb := r.reply
	arrival := server.net.eng.Now() + sim.Time(server.net.cfg.PropDelay)
	if r.From.rxBusyUntil > arrival {
		arrival = r.From.rxBusyUntil
	}
	arrival += sim.Time(ser)
	r.From.rxBusyUntil = arrival
	bytes := respBytes
	from := server
	server.net.eng.Schedule(arrival, func() {
		mb.TrySend(Message{From: from, Payload: resp, Bytes: bytes})
	})
}

// RecvRPC receives the next RPC envelope from a port, for server loops.
func RecvRPC(p *sim.Proc, port *sim.Mailbox[Message]) *RPC {
	for {
		msg := port.Recv(p)
		if rpc, ok := msg.Payload.(*RPC); ok {
			return rpc
		}
		// Non-RPC traffic on an RPC port is a programming error upstream;
		// drop it rather than wedging the server.
	}
}
