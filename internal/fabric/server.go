package fabric

import (
	"fmt"
	"time"

	"dpc/internal/cpu"
	"dpc/internal/sim"
)

// Handler is a served port's operation. call is the request payload, a
// pointer to the caller's call record: the handler applies it to the node's
// state, as an engine event at the instant the call's execution ends, writes
// the reply into the same record and returns the media time that follows
// and the reply's size in bytes. The reply payload is the record itself, so
// a call boxes nothing on either leg.
type Handler func(call any) (media time.Duration, repBytes int)

// Server answers a port with worker slots driven by engine events, not
// processes. A slot picks a call up, books a fixed execution on the node's
// cores, runs the handler when it ends, waits out the media time and posts
// the reply; a Down node's slot posts the down reply at once instead. The
// slot is held until the reply's last bit leaves the NIC, and the oldest
// call waiting for a slot starts then. That is the timing of worker
// processes looping on a mailbox, event for event; only the caller parks.
type Server struct {
	node   *Node
	pool   *cpu.Pool
	exec   time.Duration
	handle Handler
	down   any
	idle   []*slot
	// queue[head:] holds the calls waiting for a slot, oldest first.
	queue []*RPC
	head  int
}

// slot is one worker's call, from pickup until its reply has left, with the
// steps that serve it bound once.
type slot struct {
	s                                    *Server
	rpc                                  *RPC
	rep                                  any
	repBytes                             int
	f                                    *flight
	pickupFn, applyFn, replyFn, departFn func()
}

// Serve makes port on nd a Server of workers slots, each call costing cycles
// on pool and then handle; while nd is Down a call's reply is down, 32
// bytes, a record every such call shares and no caller may write. Nothing
// else may receive from the port.
func (nd *Node) Serve(port string, workers int, pool *cpu.Pool, cycles int64, down any, handle Handler) {
	if _, dup := nd.ports[port]; dup || nd.servers[port] != nil || workers < 1 {
		panic(fmt.Sprintf("fabric: cannot serve %s:%s with %d workers", nd.name, port, workers))
	}
	s := &Server{node: nd, pool: pool, exec: pool.CyclesToDuration(cycles), handle: handle, down: down}
	for range workers {
		sl := &slot{s: s}
		sl.pickupFn, sl.applyFn, sl.replyFn, sl.departFn = sl.pickup, sl.apply, sl.reply, sl.depart
		s.idle = append(s.idle, sl)
	}
	if nd.servers == nil {
		nd.servers = map[string]*Server{}
	}
	nd.servers[port] = s
}

// arrive takes a call that has arrived. A free slot picks it up at this
// instant but behind the events already due, where a worker woken by the
// arrival would run; otherwise the call waits.
func (s *Server) arrive(rpc *RPC) {
	k := len(s.idle) - 1
	if k < 0 {
		s.queue = append(s.queue, rpc)
		return
	}
	sl := s.idle[k]
	s.idle, sl.rpc = s.idle[:k], rpc
	s.node.net.eng.Schedule(s.node.net.eng.Now(), sl.pickupFn)
}

// at runs fn at t, at once if t has come, as a sleep until t returns at once.
func (sl *slot) at(t sim.Time, fn func()) {
	if eng := sl.s.node.net.eng; t > eng.Now() {
		eng.Schedule(t, fn)
		return
	}
	fn()
}

func (sl *slot) pickup() {
	if s := sl.s; s.node.Down {
		sl.rep, sl.repBytes = s.down, 32
		sl.reply()
	} else {
		_, end := s.pool.Book(s.exec)
		sl.at(end, sl.applyFn)
	}
}

func (sl *slot) apply() {
	media, n := sl.s.handle(sl.rpc.Req)
	sl.rep, sl.repBytes = sl.rpc.Req, n
	sl.at(sl.s.node.net.eng.Now()+sim.Time(media), sl.replyFn)
}

func (sl *slot) reply() {
	f, depart := sl.s.node.post(sl.rpc.From, sl.rpc.reply, sl.rep, sl.repBytes)
	sl.f, sl.rep = f, nil
	sl.at(depart, sl.departFn)
}

// depart sends the reply on its way and hands the slot to the oldest waiting
// call, if any.
func (sl *slot) depart() {
	sl.f.depart()
	s := sl.s
	sl.f, sl.rpc = nil, nil
	if s.head == len(s.queue) {
		s.idle = append(s.idle, sl)
		return
	}
	sl.rpc, s.queue[s.head] = s.queue[s.head], nil
	if s.head++; s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	sl.pickup()
}
