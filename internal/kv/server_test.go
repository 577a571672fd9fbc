package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpc/internal/cpu"
	"dpc/internal/fabric"
	"dpc/internal/sim"
)

// refServe is a shard's worker loop as it ran before fabric.Server, the
// reference model the server's timing is checked against: each of
// WorkersPerShard processes receives from the shard's "kv" port, checks
// its node's Down, executes ServerCycles on the shard's cores, applies the request,
// sleeps its media time and replies with the call record it was sent.
func refServe(p *sim.Proc, c *Cluster, sh *shard, pool *cpu.Pool) {
	port := sh.node.Listen("kv")
	down := &call{rep: Reply{Down: true}}
	for {
		rpc := fabric.RecvRPC(p, port)
		cl := rpc.Req.(*call)
		req, rep := &cl.req, &cl.rep
		if sh.node.Down {
			rpc.Reply(p, sh.node, down, 32)
			continue
		}
		pool.Exec(p, c.cfg.ServerCycles)

		var mediaLat time.Duration
		var mediaBytes int
		switch req.Op {
		case OpGet:
			rep.Val, rep.Found = sh.store.Get([]byte(req.Key))
			mediaLat, mediaBytes = c.cfg.ReadMedia, len(rep.Val)
		case OpGetInto:
			rep.Len, rep.Found = sh.store.GetInto([]byte(req.Key), req.Off, req.Into)
			mediaLat, mediaBytes = c.cfg.ReadMedia, rep.Len
		case OpPut:
			sh.store.Put([]byte(req.Key), req.Val)
			rep.Found = true
			mediaLat, mediaBytes = c.cfg.WriteMedia, len(req.Val)
		case OpDelete:
			rep.Found = sh.store.Delete([]byte(req.Key))
			mediaLat, mediaBytes = c.cfg.WriteMedia, 0
		case OpScan:
			rep.KVs = sh.store.Scan(string(req.Key), req.Limit)
			rep.Found = true
			for _, kvp := range rep.KVs {
				mediaBytes += len(kvp.Val)
			}
			mediaLat = c.cfg.ReadMedia
		}

		p.Sleep(mediaLat + time.Duration(int64(mediaBytes)*int64(time.Second)/c.cfg.MediaBps))

		c.Ops.Inc()
		respBytes := 64 + len(rep.Val) + rep.Len
		for _, kvp := range rep.KVs {
			respBytes += len(kvp.Key) + len(kvp.Val) + 16
		}
		rpc.Reply(p, sh.node, cl, respBytes)
	}
}

// serverScript is one random schedule against a small cluster: client
// processes on a few client nodes, each issuing a run of operations from a
// random instant, shards going down and back up at random instants, and
// reads of every store at random instants (as a checker reads them beside
// the fabric). Issue instants, executions, media times, flips and peeks are
// whole microseconds, so a shard's events often share an instant with each
// other and with a call's arrival: the server must order them as the worker
// loop did. A switch overhead on contended executions lets a later call's
// execution end before an earlier one's.
type serverScript struct {
	cfg     ClusterConfig
	sw      time.Duration
	fab     fabric.Config
	nodes   int
	clients []scriptClient
	flips   []scriptFlip
	peeks   []sim.Time
}

type scriptClient struct {
	at   sim.Time
	node int
	ops  []Request
}

type scriptFlip struct {
	at    sim.Time
	shard int
	down  bool
}

func randomServerScript(rng *rand.Rand) serverScript {
	us := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Microsecond }
	s := serverScript{
		cfg: ClusterConfig{
			Shards:          1 + rng.Intn(3),
			WorkersPerShard: 1 + rng.Intn(4),
			CoresPerShard:   1 + rng.Intn(4),
			CoreFreqHz:      1_000_000_000,
			ServerCycles:    int64(rng.Intn(4)) * 1000,
			ReadMedia:       us(6),
			WriteMedia:      us(4),
			MediaBps:        []int64{1_000_000_000, 2_500_000_000}[rng.Intn(2)],
		},
		sw:    us(3),
		fab:   fabric.Config{PropDelay: us(3), NICBps: []int64{1_000_000_000, 12_500_000_000}[rng.Intn(2)]},
		nodes: 1 + rng.Intn(3),
	}
	key := func() []byte { return fmt.Appendf(nil, "k%08d/%d", rng.Intn(3), rng.Intn(4)) }
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		c := scriptClient{at: sim.Time(us(60)), node: rng.Intn(s.nodes)}
		for j, m := 0, 1+rng.Intn(4); j < m; j++ {
			r := Request{Op: Op(rng.Intn(5)), Key: key()}
			switch r.Op {
			case OpPut:
				r.Val = bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(3000))
			case OpScan:
				r.Key, r.Limit = r.Key[:RoutePrefixLen], rng.Intn(3)
			case OpGetInto:
				r.Off, r.Into = rng.Intn(1500), make([]byte, rng.Intn(1500))
			}
			c.ops = append(c.ops, r)
		}
		s.clients = append(s.clients, c)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.flips = append(s.flips, scriptFlip{at: sim.Time(us(150)), shard: rng.Intn(s.cfg.Shards), down: rng.Intn(2) == 0})
	}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		s.peeks = append(s.peeks, sim.Time(us(150)))
	}
	return s
}

// serverRun is what one model made of a script: every operation's reply
// instant and result, the stores' contents at every peek and at the end,
// each shard pool's cores used over the run, the applied-op count and the
// end instant.
type serverRun struct {
	replies []string
	stores  []string
	used    []float64
	ops     int64
	end     sim.Time
}

// run plays s with the worker loop (ref) or with the shards' servers.
func (s serverScript) run(ref bool) serverRun {
	e := sim.NewEngine(1)
	net := fabric.NewNetwork(e, s.fab)
	c := &Cluster{cfg: s.cfg}
	var pools []*cpu.Pool
	for i := range s.cfg.Shards {
		sh := &shard{node: net.NewNode(fmt.Sprintf("kv-shard-%d", i)), store: NewStore()}
		c.shards = append(c.shards, sh)
		pool := cpu.NewPool(e, "kv-cpu", s.cfg.CoresPerShard, s.cfg.CoreFreqHz)
		pool.SwitchOverhead = s.sw
		pools = append(pools, pool)
		if !ref {
			c.serve(sh, pool)
			continue
		}
		for range s.cfg.WorkersPerShard {
			e.Go("kv-worker", func(p *sim.Proc) { refServe(p, c, sh, pool) })
		}
	}
	for _, f := range s.flips {
		e.Schedule(f.at, func() { c.shards[f.shard].node.Down = f.down })
	}
	var out serverRun
	dump := func() string {
		var b strings.Builder
		for _, sh := range c.shards {
			for _, kvp := range sh.store.Scan("", 0) {
				fmt.Fprintf(&b, "%s=%s ", kvp.Key, vs(kvp.Val))
			}
			b.WriteString("| ")
		}
		return b.String()
	}
	for _, at := range s.peeks {
		e.Schedule(at, func() { out.stores = append(out.stores, fmt.Sprintf("at %v: %s", at, dump())) })
	}
	var clients []*Client
	for i := range s.nodes {
		clients = append(clients, c.NewClient(net.NewNode(fmt.Sprintf("client-%d", i))))
	}
	for i, sc := range s.clients {
		e.Go("client", func(p *sim.Proc) {
			p.SleepUntil(sc.at)
			cl := clients[sc.node]
			for j, r := range sc.ops {
				var res string
				switch r.Op {
				case OpGet:
					v, ok := cl.Get(p, string(r.Key))
					res = fmt.Sprintf("get %s %v", vs(v), ok)
				case OpGetInto:
					dst := append([]byte(nil), r.Into...)
					n, ok := cl.GetInto(p, string(r.Key), r.Off, dst)
					res = fmt.Sprintf("getinto %d %v %s", n, ok, vs(dst))
				case OpPut:
					cl.Put(p, string(r.Key), r.Val)
					res = "put"
				case OpDelete:
					res = fmt.Sprintf("delete %v", cl.Delete(p, string(r.Key)))
				case OpScan:
					res = "scan"
					for _, kvp := range cl.Scan(p, string(r.Key), r.Limit) {
						res += " " + kvp.Key + "=" + vs(kvp.Val)
					}
				}
				out.replies = append(out.replies, fmt.Sprintf("client %d op %d %v at %v: %s", i, j, r.Op, p.Now(), res))
			}
		})
	}
	e.Run()
	e.Shutdown()
	out.stores = append(out.stores, "at end: "+dump())
	for _, pool := range pools {
		out.used = append(out.used, pool.CoresUsed())
	}
	out.ops, out.end = c.Ops.Total(), e.Now()
	return out
}

// vs renders a value whose bytes are runs of one byte value, as the
// script's are, as its runs.
func vs(v []byte) string {
	var b strings.Builder
	for i := 0; i < len(v); {
		j := i
		for j < len(v) && v[j] == v[i] {
			j++
		}
		fmt.Fprintf(&b, "%dx%02x,", j-i, v[i])
		i = j
	}
	return b.String()
}

// TestShardServersMatchWorkerLoop drives the shards' servers and the worker
// loop they replace with the same random schedules: every operation returns
// at the same instant with the same result, every store ends the same, and
// every shard's cores are as busy, and every store reads the same at every
// peek. No tie is allowed: a free slot picks a
// call up behind the events already due at its arrival, where the woken
// worker ran, so the two run the same events in the same order.
func TestShardServersMatchWorkerLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for sched := 0; sched < 300; sched++ {
		s := randomServerScript(rng)
		want, got := s.run(true), s.run(false)
		same := func(what string, a, b []string) {
			t.Helper()
			for i := range max(len(a), len(b)) {
				var x, y string
				if i < len(a) {
					x = a[i]
				}
				if i < len(b) {
					y = b[i]
				}
				if x != y {
					t.Fatalf("schedule %d (%+v): %s %d\n server: %s\n worker loop: %s", sched, s.cfg, what, i, y, x)
				}
			}
		}
		same("reply", want.replies, got.replies)
		same("store", want.stores, got.stores)
		for i := range want.used {
			if got.used[i] != want.used[i] {
				t.Fatalf("schedule %d: shard %d used %v cores, worker loop %v", sched, i, got.used[i], want.used[i])
			}
		}
		if got.ops != want.ops || got.end != want.end {
			t.Fatalf("schedule %d: %d ops ending at %v, worker loop %d at %v", sched, got.ops, got.end, want.ops, want.end)
		}
	}
}

// TestKVRoundTripParksOnce: a Get against an idle shard parks only its
// caller, once, on the reply.
func TestKVRoundTripParksOnce(t *testing.T) {
	e, c, cl := newTestCluster(t, 4)
	c.shards[c.ShardFor("idle-key")].store.Put([]byte([]byte("idle-key")), []byte("v"))
	parks := int64(-1)
	e.Go("client", func(p *sim.Proc) {
		before := e.Parks
		if _, ok := cl.Get(p, "idle-key"); !ok {
			t.Error("Get missed")
		}
		parks = e.Parks - before
	})
	e.Run()
	e.Shutdown()
	if parks != 1 {
		t.Fatalf("a Get parked %d times, want 1 (the caller's)", parks)
	}
}

// TestClientGetIntoZeroAllocs: a steady-state GetInto round trip allocates
// nothing: the client recycles its call record, which the fabric carries by
// pointer both ways, and the server's slots, the flights and the envelope
// are reused.
func TestClientGetIntoZeroAllocs(t *testing.T) {
	e, c, cl := newTestCluster(t, 4)
	defer e.Shutdown()
	c.shards[c.ShardFor("block-key")].store.Put([]byte([]byte("block-key")), make([]byte, 8192))
	dst := make([]byte, 8192)
	calls := 0
	e.Go("client", func(p *sim.Proc) {
		for {
			cl.GetInto(p, "block-key", 0, dst)
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
		t.Fatalf("%v allocs per GetInto round trip, want 0", a)
	}
}
