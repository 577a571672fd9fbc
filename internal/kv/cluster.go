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

// Request is a KV RPC request. Key is the request's own copy of the key,
// in its call record: the caller's key bytes are never retained.
type Request struct {
	Op    Op
	Key   []byte
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

// call is one KV access in flight: the request, with the key's bytes in its
// Key, the reply and the shard owning the key. The Client recycles call
// records (Client.free); the fabric carries the record's pointer both ways,
// so an access boxes nothing. A record handed back to the free list keeps
// its key buffer and no caller buffer.
type call struct {
	req   Request
	rep   Reply
	shard int
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
		sh := &shard{node: net.NewNode(fmt.Sprintf("kv-shard-%d", i)), store: NewStore()}
		c.shards = append(c.shards, sh)
		c.serve(sh, cpu.NewPool(eng, fmt.Sprintf("kv-cpu-%d", i), cfg.CoresPerShard, cfg.CoreFreqHz))
	}
	return c
}

// serve makes sh's node answer the "kv" port: WorkersPerShard slots, each
// request ServerCycles on pool, then the store operation and its media time.
// While the node is down every call gets the one down record built here,
// which no caller writes or recycles.
func (c *Cluster) serve(sh *shard, pool *cpu.Pool) {
	sh.node.Serve("kv", c.cfg.WorkersPerShard, pool, c.cfg.ServerCycles, &call{rep: Reply{Down: true}},
		func(r any) (time.Duration, int) { return c.apply(sh, r.(*call)) })
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

// apply runs r's request on sh's store, at the instant the shard's
// execution of it ends, writes the reply into r and returns the media time
// and the reply's size.
func (c *Cluster) apply(sh *shard, r *call) (time.Duration, int) {
	req, rep := &r.req, &r.rep
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
		rep.KVs = sh.store.Scan(string(req.Key), req.Limit)
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
	return mediaLat + time.Duration(int64(mediaBytes)*int64(time.Second)/c.cfg.MediaBps), respBytes
}

// Client issues KV operations from a fabric node (typically the DPU).
type Client struct {
	c     *Cluster
	local *fabric.Node
	// free holds the call records of finished accesses.
	free []*call
}

// NewClient creates a client bound to a local endpoint.
func (c *Cluster) NewClient(local *fabric.Node) *Client {
	return &Client{c: c, local: local}
}

// begin returns a call record for op on a copy of key, routed to the shard
// owning key. Every op copies its key here and keeps none of it, so a key
// converted from a caller's bytes at the call site stays on the caller's
// stack.
func (cl *Client) begin(op Op, key string) *call {
	var r *call
	if k := len(cl.free) - 1; k >= 0 {
		r, cl.free = cl.free[k], cl.free[:k]
	} else {
		r = &call{}
	}
	r.req.Op, r.req.Key, r.shard = op, append(r.req.Key[:0], key...), cl.c.ShardFor(key)
	return r
}

// call sends r to its shard, recycles r and returns the reply: r's own, or
// the shard's shared down reply. The recycled record drops every caller
// buffer (Val, Into) and reply value (Val, KVs).
func (cl *Client) call(p *sim.Proc, r *call) Reply {
	sh := cl.c.shards[r.shard]
	reqBytes := 64 + len(r.req.Key) + len(r.req.Val)
	rep := cl.local.Call(p, sh.node, "kv", r, reqBytes).(*call).rep
	r.req, r.rep = Request{Key: r.req.Key[:0]}, Reply{}
	cl.free = append(cl.free, r)
	return rep
}

// Get fetches a copy of a value.
func (cl *Client) Get(p *sim.Proc, key string) ([]byte, bool) {
	rep := cl.call(p, cl.begin(OpGet, key))
	return rep.Val, rep.Found && !rep.Down
}

// GetInto is Store.GetInto on the owning shard: the value's bytes from off
// land in dst, its full length is returned, at Get's cost in virtual time.
func (cl *Client) GetInto(p *sim.Proc, key string, off int, dst []byte) (int, bool) {
	r := cl.begin(OpGetInto, key)
	r.req.Off, r.req.Into = off, dst
	rep := cl.call(p, r)
	return rep.Len, rep.Found && !rep.Down
}

// Put stores a value.
func (cl *Client) Put(p *sim.Proc, key string, val []byte) {
	r := cl.begin(OpPut, key)
	r.req.Val = val
	cl.call(p, r)
}

// Delete removes a key, reporting whether it existed.
func (cl *Client) Delete(p *sim.Proc, key string) bool {
	rep := cl.call(p, cl.begin(OpDelete, key))
	return rep.Found && !rep.Down
}

// Scan lists up to limit pairs with the given prefix (which must be at least
// RoutePrefixLen bytes to be routable to a single shard).
func (cl *Client) Scan(p *sim.Proc, prefix string, limit int) []KV {
	if len(prefix) < RoutePrefixLen {
		panic(fmt.Sprintf("kv: scan prefix %q shorter than route prefix", prefix))
	}
	r := cl.begin(OpScan, prefix)
	r.req.Limit = limit
	return cl.call(p, r).KVs
}
