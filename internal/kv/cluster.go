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
//
//dpclint:params
type ClusterConfig struct {
	Shards          int
	WorkersPerShard int
	CoresPerShard   int
	CoreFreqHz      int64
	ServerCycles    int64         // CPU cost per op on the storage node
	ReadMedia       time.Duration // media latency per get/scan
	WriteMedia      time.Duration // media latency per put/delete
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
		MediaBps:        2_500_000_000,
	}
}

type shard struct {
	node  *fabric.Node
	store *Store
}

// Cluster is the set of storage nodes.
type Cluster struct {
	cfg    ClusterConfig
	shards []*shard

	// Ops counts the requests the shards applied; a down shard applies none.
	Ops stats.Counter
}

// NewCluster creates the shards and registers their fabric nodes, each
// serving the "kv" port.
func NewCluster(eng *sim.Engine, net *fabric.Network, cfg ClusterConfig) *Cluster {
	if cfg.Shards < 1 || cfg.WorkersPerShard < 1 {
		panic(fmt.Sprintf("kv: bad config %+v", cfg))
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{node: net.NewNode(fmt.Sprintf("kv-shard-%d", i)), store: NewStore(int64(i) + 1)}
		c.shards = append(c.shards, sh)
		c.serve(sh, cpu.NewPool(eng, fmt.Sprintf("kv-cpu-%d", i), cfg.CoresPerShard, cfg.CoreFreqHz))
	}
	return c
}

// serve makes sh's node answer the "kv" port: WorkersPerShard slots, each
// request ServerCycles on pool, then the store operation and its media time.
func (c *Cluster) serve(sh *shard, pool *cpu.Pool) {
	sh.node.Serve("kv", c.cfg.WorkersPerShard, pool, c.cfg.ServerCycles, Reply{Down: true},
		func(req any) (any, time.Duration, int) { return c.apply(sh, req.(Request)) })
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

// TotalKeys sums keys across shards.
func (c *Cluster) TotalKeys() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.store.Len()
	}
	return n
}

// apply runs req on sh's store, at the instant the shard's execution of it
// ends, and returns the reply, the media time and the reply's size.
func (c *Cluster) apply(sh *shard, req Request) (any, time.Duration, int) {
	var rep Reply
	var mediaLat time.Duration
	var mediaBytes int
	switch req.Op {
	case OpGet:
		rep.Val, rep.Found = sh.store.Get(req.Key)
		mediaLat, mediaBytes = c.cfg.ReadMedia, len(rep.Val)
	case OpGetInto:
		// Media time and reply size are the whole value's, as for OpGet,
		// whatever window of it the destination takes.
		rep.Len, rep.Found = sh.store.GetInto(req.Key, req.Off, req.Into)
		mediaLat, mediaBytes = c.cfg.ReadMedia, rep.Len
	case OpPut:
		sh.store.Put(req.Key, req.Val)
		rep.Found = true
		mediaLat, mediaBytes = c.cfg.WriteMedia, len(req.Val)
	case OpDelete:
		rep.Found = sh.store.Delete(req.Key)
		mediaLat, mediaBytes = c.cfg.WriteMedia, 0
	case OpScan:
		rep.KVs = sh.store.Scan(req.Key, req.Limit)
		rep.Found = true
		for _, kvp := range rep.KVs {
			mediaBytes += len(kvp.Val)
		}
		mediaLat = c.cfg.ReadMedia
	}
	c.Ops.Inc()
	respBytes := 64 + len(rep.Val) + rep.Len
	for _, kvp := range rep.KVs {
		respBytes += len(kvp.Key) + len(kvp.Val) + 16
	}
	return rep, mediaLat + time.Duration(int64(mediaBytes)*int64(time.Second)/c.cfg.MediaBps), respBytes
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
