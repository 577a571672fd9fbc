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
	// free holds delivered flights for reuse.
	free []*flight

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
	ports map[string]*sim.Mailbox[Message]
	// txBusyUntil and rxBusyUntil are the NIC's two directions as clocks:
	// a message leaves after the sender's earlier messages have left and
	// arrives after the receiver's earlier arrivals, each serialized at the
	// line rate, so neither direction exceeds NICBps however many messages
	// queue behind it or fan in.
	txBusyUntil, rxBusyUntil sim.Time
	// idle holds the node's RPC envelopes that are in no call, each with
	// its reply mailbox.
	idle []*RPC
}

// NewNode registers a node. Node names must be unique.
func (n *Network) NewNode(name string) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	nd := &Node{net: n, name: name, ports: map[string]*sim.Mailbox[Message]{}}
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

// flight is one message on its way from the sender's NIC into a mailbox on
// dst. Flights are recycled; their depart and arrive funcs are bound once.
type flight struct {
	dst                *Node
	mb                 *sim.Mailbox[Message]
	msg                Message
	ser                time.Duration
	departFn, arriveFn func()
}

// post validates a message's size and books nd's NIC for it. It returns the
// message's flight and the instant its last bit leaves.
func (nd *Node) post(dst *Node, mb *sim.Mailbox[Message], payload any, bytes int) (*flight, sim.Time) {
	if bytes < 0 {
		panic("fabric: negative message size")
	}
	net := nd.net
	var f *flight
	if k := len(net.free) - 1; k >= 0 {
		f, net.free = net.free[k], net.free[:k]
	} else {
		f = &flight{}
		f.departFn, f.arriveFn = f.depart, f.arrive
	}
	f.dst, f.mb, f.msg = dst, mb, Message{From: nd, Payload: payload, Bytes: bytes}
	f.ser = time.Duration(int64(bytes) * int64(time.Second) / net.cfg.NICBps)
	nd.txBusyUntil = max(net.eng.Now(), nd.txBusyUntil) + sim.Time(f.ser)
	return f, nd.txBusyUntil
}

// depart runs when the message's last bit has left: it counts the message
// and schedules its arrival after the propagation delay, queued behind
// earlier arrivals at the receiver's line rate.
func (f *flight) depart() {
	net := f.dst.net
	net.Messages.Inc()
	net.BytesSent.Add(int64(f.msg.Bytes))
	arrival := max(net.eng.Now()+sim.Time(net.cfg.PropDelay), f.dst.rxBusyUntil) + sim.Time(f.ser)
	f.dst.rxBusyUntil = arrival
	net.eng.Schedule(arrival, f.arriveFn)
}

func (f *flight) arrive() {
	f.mb.TrySend(f.msg)
	net := f.dst.net
	f.dst, f.mb, f.msg = nil, nil, Message{}
	net.free = append(net.free, f)
}

// Send transmits payload to a port on dst, charging sender NIC serialization
// plus propagation delay and receive-side serialization. The sender blocks
// only until its message has left its NIC; delivery happens asynchronously.
func (nd *Node) Send(p *sim.Proc, dst *Node, port string, payload any, bytes int) {
	f, depart := nd.post(dst, dst.Listen(port), payload, bytes)
	p.SleepUntil(depart)
	f.depart()
}

// RPC is a request envelope carrying its own reply channel. Its node reuses
// it for a later call once the reply is in.
type RPC struct {
	From     *Node
	Req      any
	ReqBytes int
	reply    *sim.Mailbox[Message]
}

// Call sends req to a port on dst and blocks until the server replies,
// returning the response payload. The caller does not wait for its request
// to leave: the departure is an event, and the caller parks once, on the
// reply.
func (nd *Node) Call(p *sim.Proc, dst *Node, port string, req any, reqBytes int) any {
	var env *RPC
	if k := len(nd.idle) - 1; k >= 0 {
		env, nd.idle = nd.idle[k], nd.idle[:k]
	} else {
		env = &RPC{From: nd, reply: sim.NewMailbox[Message](nd.net.eng, nd.name+"-reply", 0)}
	}
	env.Req, env.ReqBytes = req, reqBytes
	f, depart := nd.post(dst, dst.Listen(port), env, reqBytes)
	nd.net.eng.Schedule(depart, f.departFn)
	resp := env.reply.Recv(p).Payload
	env.Req = nil
	nd.idle = append(nd.idle, env)
	return resp
}

// Reply answers an RPC, charging the server's NIC, the return flight and
// the caller's receive-side serialization. server is the node executing the
// handler. The envelope is dead once Reply is called: its caller reuses it
// as soon as the response arrives.
func (r *RPC) Reply(p *sim.Proc, server *Node, resp any, respBytes int) {
	f, depart := server.post(r.From, r.reply, resp, respBytes)
	p.SleepUntil(depart)
	f.depart()
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
