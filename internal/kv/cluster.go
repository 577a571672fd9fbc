package kv

import (
	"fmt"
	"time"

	"dpc/internal/cpu"
	"dpc/internal/fabric"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// RoutePrefixLen is the number of leading key bytes that determine the
// shard. KVFS keys start with a type byte plus an 8-byte inode number, so
// all keys of one file — and all entries of one directory — share a shard.
const RoutePrefixLen = 9

// Op codes for the wire protocol.
type Op int

const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpScan
	OpGetInto
)

// Request is a KV RPC request.
type Request struct {
	Op    Op
	Key   string
	Val   []byte
	Limit int
	// Into is the caller-owned destination of an OpGetInto, Off the value
	// offset it starts at. The shard fills it at the instant of the lookup —
	// the bytes an OpGet reply would carry; a failed shard leaves it alone.
	Into []byte
	Off  int
}

// Reply is a KV RPC reply.
type Reply struct {
	Found bool
	Val   []byte
	Len   int // OpGetInto: the stored value's full length
	KVs   []KV
	// Down reports that the shard is failed and served nothing.
	Down bool
}

// ClusterConfig sizes the disaggregated store.
type ClusterConfig struct {
	Shards          int
	WorkersPerShard int
	CoresPerShard   int
	CoreFreqHz      int64
	ServerCycles    int64         // CPU cost per op on the storage node
	ReadMedia       time.Duration // media latency per get/scan
	WriteMedia      time.Duration // media latency per put/delete
	MediaChannels   int           // per-shard media parallelism
	MediaBps        int64         // per-shard media bandwidth
	// Replicas is the number of copies of each key (1 = no replication).
	// Writes go to the primary and its successors in parallel; reads try
	// the primary and fail over to replicas when a shard is down.
	Replicas int
}

// DefaultClusterConfig models a healthy flash-backed KV service.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Shards:          16,
		WorkersPerShard: 8,
		CoresPerShard:   8,
		CoreFreqHz:      2_500_000_000,
		ServerCycles:    12_000,
		ReadMedia:       45 * time.Microsecond,
		WriteMedia:      22 * time.Microsecond,
		MediaChannels:   16,
		MediaBps:        2_500_000_000,
		Replicas:        1,
	}
}

type shard struct {
	node  *fabric.Node
	cpu   *cpu.Pool
	media *sim.Resource
	store *Store
	cfg   ClusterConfig
	down  bool
}

// Cluster is the set of storage nodes.
type Cluster struct {
	eng    *sim.Engine
	cfg    ClusterConfig
	shards []*shard
	// ring is 0..Shards-1 followed by its own first Replicas-1 entries: a
	// key's replica set is a window of it starting at the primary.
	ring     []int
	replicas int // cfg.Replicas clamped to [1, Shards]

	Ops stats.Counter
}

// NewCluster creates the shards, registers their fabric nodes and starts the
// server processes.
func NewCluster(eng *sim.Engine, net *fabric.Network, cfg ClusterConfig) *Cluster {
	if cfg.Shards < 1 || cfg.WorkersPerShard < 1 {
		panic(fmt.Sprintf("kv: bad config %+v", cfg))
	}
	c := &Cluster{eng: eng, cfg: cfg, replicas: min(max(cfg.Replicas, 1), cfg.Shards)}
	for i := 0; i < cfg.Shards+c.replicas-1; i++ {
		c.ring = append(c.ring, i%cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			node:  net.NewNode(fmt.Sprintf("kv-shard-%d", i)),
			cpu:   cpu.NewPool(eng, fmt.Sprintf("kv-cpu-%d", i), cfg.CoresPerShard, cfg.CoreFreqHz),
			media: sim.NewResource(eng, fmt.Sprintf("kv-media-%d", i), cfg.MediaChannels),
			store: NewStore(int64(i) + 1),
			cfg:   cfg,
		}
		c.shards = append(c.shards, sh)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			eng.Go(fmt.Sprintf("kv-worker-%d-%d", i, w), func(p *sim.Proc) { sh.serve(p, c) })
		}
	}
	return c
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// ShardFor returns the shard index owning key.
func (c *Cluster) ShardFor(key string) int {
	// FNV-1a over the route prefix, inline: hash/fnv costs a hasher and a
	// byte-slice copy of the prefix per call.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key) && i < RoutePrefixLen; i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h % uint64(len(c.shards)))
}

// StoreOf exposes a shard's raw store for test setup and verification.
func (c *Cluster) StoreOf(i int) *Store { return c.shards[i].store }

// SetShardDown marks a shard as failed: it answers every request with
// Down=true until revived (failure-injection for availability tests).
func (c *Cluster) SetShardDown(i int, down bool) { c.shards[i].down = down }

// ReplicaShards returns the shard indices holding key, primary first. The
// result is shared and must not be modified.
func (c *Cluster) ReplicaShards(key string) []int {
	primary := c.ShardFor(key)
	return c.ring[primary : primary+c.replicas]
}

// NodeOf exposes a shard's fabric node.
func (c *Cluster) NodeOf(i int) *fabric.Node { return c.shards[i].node }

// TotalKeys sums keys across shards.
func (c *Cluster) TotalKeys() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.store.Len()
	}
	return n
}

func (sh *shard) serve(p *sim.Proc, c *Cluster) {
	port := sh.node.Listen("kv")
	for {
		rpc := fabric.RecvRPC(p, port)
		req := rpc.Req.(Request)
		if sh.down {
			rpc.Reply(p, sh.node, Reply{Down: true}, 32)
			continue
		}
		sh.cpu.Exec(p, sh.cfg.ServerCycles)

		var rep Reply
		var mediaLat time.Duration
		var mediaBytes int
		switch req.Op {
		case OpGet:
			rep.Val, rep.Found = sh.store.Get(req.Key)
			mediaLat, mediaBytes = sh.cfg.ReadMedia, len(rep.Val)
		case OpGetInto:
			// Media time and reply size are the whole value's, as for OpGet,
			// whatever window of it the destination takes.
			rep.Len, rep.Found = sh.store.GetInto(req.Key, req.Off, req.Into)
			mediaLat, mediaBytes = sh.cfg.ReadMedia, rep.Len
		case OpPut:
			sh.store.Put(req.Key, req.Val)
			rep.Found = true
			mediaLat, mediaBytes = sh.cfg.WriteMedia, len(req.Val)
		case OpDelete:
			rep.Found = sh.store.Delete(req.Key)
			mediaLat, mediaBytes = sh.cfg.WriteMedia, 0
		case OpScan:
			rep.KVs = sh.store.Scan(req.Key, req.Limit)
			rep.Found = true
			for _, kvp := range rep.KVs {
				mediaBytes += len(kvp.Val)
			}
			mediaLat = sh.cfg.ReadMedia
		}

		sh.media.Acquire(p, 1)
		p.Sleep(mediaLat + time.Duration(int64(mediaBytes)*int64(time.Second)/sh.cfg.MediaBps))
		sh.media.Release(1)

		c.Ops.Inc()
		respBytes := 64 + len(rep.Val) + rep.Len
		for _, kvp := range rep.KVs {
			respBytes += len(kvp.Key) + len(kvp.Val) + 16
		}
		rpc.Reply(p, sh.node, rep, respBytes)
	}
}

// Client issues KV operations from a fabric node (typically the DPU).
type Client struct {
	c     *Cluster
	local *fabric.Node
}

// NewClient creates a client bound to a local endpoint.
func (c *Cluster) NewClient(local *fabric.Node) *Client {
	return &Client{c: c, local: local}
}

// callShard issues one RPC to a specific shard.
func (cl *Client) callShard(p *sim.Proc, shardIdx int, req Request) Reply {
	sh := cl.c.shards[shardIdx]
	reqBytes := 64 + len(req.Key) + len(req.Val)
	return cl.local.Call(p, sh.node, "kv", req, reqBytes).(Reply)
}

// readCall tries the primary and fails over to replicas while shards are
// down.
func (cl *Client) readCall(p *sim.Proc, req Request) Reply {
	var rep Reply
	for _, idx := range cl.c.ReplicaShards(req.Key) {
		rep = cl.callShard(p, idx, req)
		if !rep.Down {
			return rep
		}
	}
	return rep
}

// writeCall updates every replica in parallel. Writes succeed as long as at
// least one replica is alive (failed replicas resync out of band; this
// models a primary-backup store, not a consensus protocol).
func (cl *Client) writeCall(p *sim.Proc, req Request) Reply {
	replicas := cl.c.ReplicaShards(req.Key)
	if len(replicas) == 1 {
		return cl.callShard(p, replicas[0], req)
	}
	reps := make([]Reply, len(replicas))
	remaining := len(replicas)
	done := sim.NewCond(cl.c.eng, "kv-repl")
	for i, idx := range replicas {
		i, idx := i, idx
		cl.c.eng.Go("kv-repl-w", func(pp *sim.Proc) {
			reps[i] = cl.callShard(pp, idx, req)
			remaining--
			if remaining == 0 {
				done.Broadcast()
			}
		})
	}
	for remaining > 0 {
		done.Wait(p)
	}
	for _, r := range reps {
		if !r.Down {
			return r
		}
	}
	return reps[0]
}

// Get fetches a copy of a value.
func (cl *Client) Get(p *sim.Proc, key string) ([]byte, bool) {
	rep := cl.readCall(p, Request{Op: OpGet, Key: key})
	return rep.Val, rep.Found && !rep.Down
}

// GetInto is Store.GetInto on the owning shard: the value's bytes from off
// land in dst, its full length is returned, at Get's cost in virtual time.
func (cl *Client) GetInto(p *sim.Proc, key string, off int, dst []byte) (int, bool) {
	rep := cl.readCall(p, Request{Op: OpGetInto, Key: key, Off: off, Into: dst})
	return rep.Len, rep.Found && !rep.Down
}

// Put stores a value.
func (cl *Client) Put(p *sim.Proc, key string, val []byte) {
	cl.writeCall(p, Request{Op: OpPut, Key: key, Val: val})
}

// Delete removes a key, reporting whether it existed.
func (cl *Client) Delete(p *sim.Proc, key string) bool {
	rep := cl.writeCall(p, Request{Op: OpDelete, Key: key})
	return rep.Found && !rep.Down
}

// Scan lists up to limit pairs with the given prefix (which must be at least
// RoutePrefixLen bytes to be routable to a single shard).
func (cl *Client) Scan(p *sim.Proc, prefix string, limit int) []KV {
	if len(prefix) < RoutePrefixLen {
		panic(fmt.Sprintf("kv: scan prefix %q shorter than route prefix", prefix))
	}
	return cl.readCall(p, Request{Op: OpScan, Key: prefix, Limit: limit}).KVs
}
