// Package dfs implements the distributed file system used by Figures 1 and
// 9: a backend of metadata servers (MDS) and data servers, plus three
// fs-clients — the standard NFS-style client, the optimized host-side
// client (metadata-view routing, delegation caching, client-side erasure
// coding, direct I/O), and the offloadable core that DPC runs on the DPU.
//
// File data is erasure-coded with a real Reed–Solomon coder: every 8 KB
// block becomes k data + m parity shards stored on distinct data servers,
// and degraded reads reconstruct missing shards from survivors.
package dfs

import (
	"encoding/binary"
	"fmt"
	"time"

	"dpc/internal/cpu"
	"dpc/internal/ec"
	"dpc/internal/fabric"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// BlockSize is the erasure-coding group size.
const BlockSize = 8192

// BackendConfig sizes the DFS backend.
//
//dpclint:params
type BackendConfig struct {
	MDSCount int
	DSCount  int
	ECData   int
	ECParity int

	MDSCores  int
	MDSFreqHz int64
	// MDSCycles is charged per request an MDS handles (including each
	// forwarded request on the entry MDS).
	MDSCycles int64
	// MDSECCyclesPerByte is the server-side erasure-coding cost used when
	// the client does not do EC itself.
	MDSECCyclesPerByte int64

	DSCores      int
	DSFreqHz     int64
	DSCycles     int64
	DSReadMedia  time.Duration
	DSWriteMedia time.Duration
	DSMediaBps   int64
}

// DefaultBackendConfig matches the experiments' calibration.
func DefaultBackendConfig() BackendConfig {
	return BackendConfig{
		MDSCount:           4,
		DSCount:            6,
		ECData:             4,
		ECParity:           2,
		MDSCores:           8,
		MDSFreqHz:          2_500_000_000,
		MDSCycles:          11_000,
		MDSECCyclesPerByte: 5,
		DSCores:            8,
		DSFreqHz:           2_500_000_000,
		DSCycles:           6_000,
		DSReadMedia:        35 * time.Microsecond,
		DSWriteMedia:       18 * time.Microsecond,
		DSMediaBps:         2_800_000_000,
	}
}

// ---- wire messages ----

type mdsOp int

const (
	mdsCreate mdsOp = iota
	mdsLookup
	mdsGetattr
	mdsWriteInline // server-side EC write (standard client path)
	mdsReadProxy   // server-side read (standard client path)
	mdsUpdateSize  // lazy size update after client DIO
	mdsDelegate    // grant a delegation for a path
)

type mdsReq struct {
	Op        mdsOp
	Path      string
	Ino       uint64
	Off       uint64
	Len       int
	Data      []byte
	Forwarded bool
	// Origin is the client node issuing the request; the MDS uses it to
	// grant delegations and to skip the writer when recalling them.
	Origin *fabric.Node
}

// recallMsg is the one-way delegation-recall notification an MDS sends to
// delegation holders when another client changes a file.
type recallMsg struct {
	Ino  uint64
	Size uint64
}

type mdsResp struct {
	Err  string
	Ino  uint64
	Size uint64
	Data []byte
}

type dsOp int

const (
	dsWrite dsOp = iota
	dsRead
)

type dsShard struct {
	Key  string
	Data []byte
}

type dsReq struct {
	Op     dsOp
	Shards []dsShard // for writes: key+data; for reads: keys only
}

type dsResp struct {
	Shards []dsShard
	OK     bool
}

// ShardKey names one erasure-coded shard.
func ShardKey(ino, blk uint64, shard int) string {
	var b [17]byte
	binary.BigEndian.PutUint64(b[0:], ino)
	binary.BigEndian.PutUint64(b[8:], blk)
	b[16] = byte(shard)
	return string(b[:])
}

// ---- servers ----

type mdsNode struct {
	idx  int
	node *fabric.Node
	cpu  *cpu.Pool

	// Flat namespace: this MDS is home for the paths and inos hashed to it.
	paths   map[string]uint64
	attrs   map[uint64]*fileAttr
	nextIno uint64
	// delegations lists the client nodes holding a delegation per inode,
	// once each, in grant order: recalls leave in that order, so virtual
	// time repeats from run to run.
	delegations map[uint64][]*fabric.Node
}

type fileAttr struct {
	Size uint64
}

type dsNode struct {
	node  *fabric.Node
	cpu   *cpu.Pool
	store map[string][]byte
	down  bool
}

// Backend is the assembled DFS cluster.
type Backend struct {
	eng   *sim.Engine
	cfg   BackendConfig
	coder *ec.Coder
	mds   []*mdsNode
	ds    []*dsNode

	MDSOps stats.Counter
	// Forwards counts entry-MDS metadata forwards (saved by the optimized
	// clients' metadata-view cache).
	Forwards stats.Counter
	// Recalls counts delegation-recall notifications sent to clients.
	Recalls stats.Counter
}

// NewBackend builds the cluster and starts its server processes.
func NewBackend(eng *sim.Engine, net *fabric.Network, cfg BackendConfig) *Backend {
	coder, err := ec.New(cfg.ECData, cfg.ECParity)
	if err != nil {
		panic(err)
	}
	if cfg.DSCount < cfg.ECData+cfg.ECParity {
		panic(fmt.Sprintf("dfs: %d data servers < %d shards", cfg.DSCount, cfg.ECData+cfg.ECParity))
	}
	b := &Backend{eng: eng, cfg: cfg, coder: coder}
	for i := 0; i < cfg.MDSCount; i++ {
		m := &mdsNode{
			idx:         i,
			node:        net.NewNode(fmt.Sprintf("mds-%d", i)),
			cpu:         cpu.NewPool(eng, fmt.Sprintf("mds-cpu-%d", i), cfg.MDSCores, cfg.MDSFreqHz),
			paths:       map[string]uint64{},
			attrs:       map[uint64]*fileAttr{},
			nextIno:     uint64(i) + uint64(cfg.MDSCount), // ino % MDSCount == i
			delegations: map[uint64][]*fabric.Node{},
		}
		b.mds = append(b.mds, m)
		for w := 0; w < cfg.MDSCores; w++ {
			mm := m
			eng.Go(fmt.Sprintf("mds-%d-w%d", i, w), func(p *sim.Proc) { b.mdsServe(p, mm) })
		}
		mm := m
		eng.Go(fmt.Sprintf("mds-%d-lazy", i), func(p *sim.Proc) { b.lazyServe(p, mm) })
	}
	for i := 0; i < cfg.DSCount; i++ {
		d := &dsNode{
			node:  net.NewNode(fmt.Sprintf("ds-%d", i)),
			cpu:   cpu.NewPool(eng, fmt.Sprintf("ds-cpu-%d", i), cfg.DSCores, cfg.DSFreqHz),
			store: map[string][]byte{},
		}
		b.ds = append(b.ds, d)
		for w := 0; w < cfg.DSCores; w++ {
			dd := d
			eng.Go(fmt.Sprintf("ds-%d-w%d", i, w), func(p *sim.Proc) { b.dsServe(p, dd) })
		}
	}
	return b
}

// Coder exposes the backend's erasure coder (clients use the same one).
func (b *Backend) Coder() *ec.Coder { return b.coder }

// Config returns the backend configuration.
func (b *Backend) Config() BackendConfig { return b.cfg }

// HomeMDSOfPath returns the home MDS index for a path.
func (b *Backend) HomeMDSOfPath(path string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	return int(h % uint64(len(b.mds)))
}

// HomeMDSOfIno returns the home MDS index for an inode.
func (b *Backend) HomeMDSOfIno(ino uint64) int { return int(ino % uint64(len(b.mds))) }

// EntryMDS returns the fixed entry MDS node (index 0), the proxy that
// standard clients send everything through.
func (b *Backend) EntryMDS() *fabric.Node { return b.mds[0].node }

// MDSNode returns MDS i's fabric node.
func (b *Backend) MDSNode(i int) *fabric.Node { return b.mds[i].node }

// Placement returns the data-server indices holding block blk's shards.
func (b *Backend) Placement(ino, blk uint64) []int {
	n := b.cfg.ECData + b.cfg.ECParity
	out := make([]int, n)
	start := int((ino + blk) % uint64(len(b.ds)))
	for i := 0; i < n; i++ {
		out[i] = (start + i) % len(b.ds)
	}
	return out
}
