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
	cfg    ClusterConfig
	shards []*shard

	Ops stats.Counter
}

// NewCluster creates the shards, registers their fabric nodes and starts the
// server processes.
func NewCluster(eng *sim.Engine, net *fabric.Network, cfg ClusterConfig) *Cluster {
	if cfg.Shards < 1 || cfg.WorkersPerShard < 1 {
		panic(fmt.Sprintf("kv: bad config %+v", cfg))
	}
	c := &Cluster{cfg: cfg}
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
// Down=true until revived, so every operation on its keys fails
// (failure injection).
func (c *Cluster) SetShardDown(i int, down bool) { c.shards[i].down = down }

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

// call issues req to the shard owning its key.
func (cl *Client) call(p *sim.Proc, req Request) Reply {
	sh := cl.c.shards[cl.c.ShardFor(req.Key)]
	reqBytes := 64 + len(req.Key) + len(req.Val)
	return cl.local.Call(p, sh.node, "kv", req, reqBytes).(Reply)
}

// Get fetches a copy of a value.
func (cl *Client) Get(p *sim.Proc, key string) ([]byte, bool) {
	rep := cl.call(p, Request{Op: OpGet, Key: key})
	return rep.Val, rep.Found && !rep.Down
}

// GetInto is Store.GetInto on the owning shard: the value's bytes from off
// land in dst, its full length is returned, at Get's cost in virtual time.
func (cl *Client) GetInto(p *sim.Proc, key string, off int, dst []byte) (int, bool) {
	rep := cl.call(p, Request{Op: OpGetInto, Key: key, Off: off, Into: dst})
	return rep.Len, rep.Found && !rep.Down
}

// Put stores a value.
func (cl *Client) Put(p *sim.Proc, key string, val []byte) {
	cl.call(p, Request{Op: OpPut, Key: key, Val: val})
}

// Delete removes a key, reporting whether it existed.
func (cl *Client) Delete(p *sim.Proc, key string) bool {
	rep := cl.call(p, Request{Op: OpDelete, Key: key})
	return rep.Found && !rep.Down
}

// Scan lists up to limit pairs with the given prefix (which must be at least
// RoutePrefixLen bytes to be routable to a single shard).
func (cl *Client) Scan(p *sim.Proc, prefix string, limit int) []KV {
	if len(prefix) < RoutePrefixLen {
		panic(fmt.Sprintf("kv: scan prefix %q shorter than route prefix", prefix))
	}
	return cl.call(p, Request{Op: OpScan, Key: prefix, Limit: limit}).KVs
}
