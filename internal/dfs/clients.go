package dfs

import (
	"errors"
	"fmt"

	"dpc/internal/cpu"
	"dpc/internal/fabric"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Errors returned by the clients.
var (
	ErrNotFound = errors.New("dfs: not found")
	ErrExists   = errors.New("dfs: exists")
	ErrRemote   = errors.New("dfs: remote error")
)

func respErr(resp mdsResp) error {
	switch resp.Err {
	case "":
		return nil
	case "not found":
		return ErrNotFound
	case "exists":
		return ErrExists
	default:
		return fmt.Errorf("%w: %s", ErrRemote, resp.Err)
	}
}

// Client is the interface shared by all three fs-client flavors.
type Client interface {
	Create(p *sim.Proc, path string) (uint64, error)
	Lookup(p *sim.Proc, path string) (uint64, uint64, error) // ino, size
	Write(p *sim.Proc, ino uint64, off uint64, data []byte) error
	Read(p *sim.Proc, ino uint64, off uint64, n int) ([]byte, error)
}

// ---- standard client ----

// StdClientConfig tunes the baseline NFS-style client.
type StdClientConfig struct {
	// PerOpCycles is the host CPU burned per operation (RPC encode, page
	// handling).
	PerOpCycles int64
	// Slots bounds in-flight RPCs, like the NFS slot table: the classic
	// reason standard NFS does not scale with threads.
	Slots int
}

// DefaultStdClientConfig matches the calibration: the standard client burns
// ~24 µs of host CPU per op (RPC encode/decode, page handling, wakeups) and
// is throttled by a 16-entry slot table, landing near the paper's 1-3 cores
// at its modest IOPS.
func DefaultStdClientConfig() StdClientConfig {
	return StdClientConfig{PerOpCycles: 50_000, Slots: 8}
}

// StdClient is the standard NFS-style client: every request funnels through
// the entry MDS, which forwards metadata to home MDSes and performs EC and
// data placement server-side. Cheap on host CPU, slow on throughput.
type StdClient struct {
	b    *Backend
	node *fabric.Node
	cpu  *cpu.Pool
	cfg  StdClientConfig
	slot *sim.Resource

	Ops stats.Counter
}

// NewStdClient creates a standard client running on the given CPU/node.
func NewStdClient(b *Backend, node *fabric.Node, pool *cpu.Pool, cfg StdClientConfig) *StdClient {
	return &StdClient{
		b: b, node: node, cpu: pool, cfg: cfg,
		slot: sim.NewResource(b.eng, "nfs-slots", cfg.Slots),
	}
}

func (c *StdClient) call(p *sim.Proc, req mdsReq) mdsResp {
	req.Origin = c.node
	c.cpu.Exec(p, c.cfg.PerOpCycles)
	c.Ops.Inc()
	c.slot.Acquire(p, 1)
	resp := c.node.Call(p, c.b.EntryMDS(), "meta", req, 96+len(req.Path)+len(req.Data)).(mdsResp)
	c.slot.Release(1)
	return resp
}

// Create registers a new file.
func (c *StdClient) Create(p *sim.Proc, path string) (uint64, error) {
	resp := c.call(p, mdsReq{Op: mdsCreate, Path: path})
	return resp.Ino, respErr(resp)
}

// Lookup resolves a path (no client-side caching: every call goes remote).
func (c *StdClient) Lookup(p *sim.Proc, path string) (uint64, uint64, error) {
	resp := c.call(p, mdsReq{Op: mdsLookup, Path: path})
	return resp.Ino, resp.Size, respErr(resp)
}

// Write ships the data to the MDS, which erasure-codes and distributes it.
func (c *StdClient) Write(p *sim.Proc, ino uint64, off uint64, data []byte) error {
	resp := c.call(p, mdsReq{Op: mdsWriteInline, Ino: ino, Off: off, Data: data})
	return respErr(resp)
}

// Read proxies through the MDS.
func (c *StdClient) Read(p *sim.Proc, ino uint64, off uint64, n int) ([]byte, error) {
	resp := c.call(p, mdsReq{Op: mdsReadProxy, Ino: ino, Off: off, Len: n})
	return resp.Data, respErr(resp)
}

// ---- optimized / offloadable core ----

// CoreCosts parameterizes where the optimized client's work is charged:
// the host pool for the opt-client baseline, the DPU pool for DPC.
type CoreCosts struct {
	// PerOpCycles covers request handling, checksumming, layout math and
	// RPC management for one operation.
	PerOpCycles int64
	// ECCyclesPerByte is the client-side Reed–Solomon cost.
	ECCyclesPerByte int64
	// DelegationCycles is the (cheap) cost of a delegation-cache hit.
	DelegationCycles int64
}

// DefaultCoreCosts matches the calibration: the optimized client's request
// handling (checksums, layout math, shard RPC management, page pinning)
// costs ~71 µs per op on whatever CPU runs it — the host for the opt-client
// baseline (the paper's ~30 cores during IOPS tests), the DPU for DPC.
func DefaultCoreCosts() CoreCosts {
	return CoreCosts{PerOpCycles: 150_000, ECCyclesPerByte: 4, DelegationCycles: 2_500}
}

// Core implements the optimized fs-client logic: metadata-view routing
// straight to home MDSes, delegation caching, client-side erasure coding
// and direct I/O to the data servers with lazy metadata updates. It is
// placement-agnostic: instantiated on the host CPU it is the paper's
// "opt-client" baseline; on the DPU CPU it is the engine inside DPC.
type Core struct {
	b     *Backend
	node  *fabric.Node
	cpu   *cpu.Pool
	costs CoreCosts

	// Delegation cache: path -> ino and ino -> size, maintained locally
	// after the first metadata access.
	deleg map[string]uint64
	sizes map[uint64]uint64

	Ops         stats.Counter
	DelegHits   stats.Counter
	RecallsSeen stats.Counter

	// Obs, when set (before first use), records dfs.read/dfs.write spans;
	// AttachObs also publishes Ops, every core operation, as "dfs.core.ops".
	// Nil no-ops.
	Obs *obs.Obs
}

// AttachObs enables span/counter recording on the core. Safe with nil.
func (c *Core) AttachObs(o *obs.Obs) {
	c.Obs = o
	o.Publish("dfs.core.ops", c.Ops.Loc())
}

// NewCore creates an optimized client core on the given CPU pool and node.
func NewCore(b *Backend, node *fabric.Node, pool *cpu.Pool, costs CoreCosts) *Core {
	c := &Core{
		b: b, node: node, cpu: pool, costs: costs,
		deleg: map[string]uint64{},
		sizes: map[uint64]uint64{},
	}
	b.eng.Go(node.Name()+"-recall", c.recallLoop)
	return c
}

// homeCall routes a request directly to its home MDS using the cached
// metadata view (no entry-MDS forwarding).
func (c *Core) homeCall(p *sim.Proc, home int, req mdsReq) mdsResp {
	req.Origin = c.node
	return c.node.Call(p, c.b.MDSNode(home), "meta", req, 96+len(req.Path)+len(req.Data)).(mdsResp)
}

// recallLoop receives delegation recalls from the MDSes and refreshes the
// locally cached metadata, keeping delegated state coherent when other
// clients write the same files.
func (c *Core) recallLoop(p *sim.Proc) {
	port := c.node.Listen("recall")
	for {
		msg := port.Recv(p)
		rc, ok := msg.Payload.(recallMsg)
		if !ok {
			continue
		}
		c.cpu.Exec(p, c.costs.DelegationCycles)
		if cur, held := c.sizes[rc.Ino]; held && rc.Size > cur {
			c.sizes[rc.Ino] = rc.Size
		} else if !held {
			c.sizes[rc.Ino] = rc.Size
		}
		c.RecallsSeen.Inc()
	}
}

// Create registers a new file and takes a delegation on it.
func (c *Core) Create(p *sim.Proc, path string) (uint64, error) {
	c.cpu.Exec(p, c.costs.PerOpCycles)
	c.Ops.Inc()
	resp := c.homeCall(p, c.b.HomeMDSOfPath(path), mdsReq{Op: mdsCreate, Path: path})
	if err := respErr(resp); err != nil {
		return 0, err
	}
	c.deleg[path] = resp.Ino
	c.sizes[resp.Ino] = 0
	return resp.Ino, nil
}

// Lookup resolves a path, serving repeat lookups from the delegation cache.
func (c *Core) Lookup(p *sim.Proc, path string) (uint64, uint64, error) {
	if ino, ok := c.deleg[path]; ok {
		c.cpu.Exec(p, c.costs.DelegationCycles)
		c.DelegHits.Inc()
		return ino, c.sizes[ino], nil
	}
	c.cpu.Exec(p, c.costs.PerOpCycles)
	c.Ops.Inc()
	resp := c.homeCall(p, c.b.HomeMDSOfPath(path), mdsReq{Op: mdsDelegate, Path: path})
	if err := respErr(resp); err != nil {
		return 0, 0, err
	}
	c.deleg[path] = resp.Ino
	c.sizes[resp.Ino] = resp.Size
	return resp.Ino, resp.Size, nil
}

// Write erasure-codes the data locally (real Reed–Solomon on the payload)
// and writes the shards directly to the data servers; the size update goes
// to the MDS lazily (one-way message, not waited on).
func (c *Core) Write(p *sim.Proc, ino uint64, off uint64, data []byte) error {
	s := c.Obs.Begin(p, "dfs.write")
	defer s.End(p)
	c.cpu.Exec(p, c.costs.PerOpCycles+c.costs.ECCyclesPerByte*int64(len(data)))
	c.Ops.Inc()
	if errs := c.b.writeBlocksFrom(p, c.node, ino, off, data); errs != "" {
		return fmt.Errorf("%w: %s", ErrRemote, errs)
	}
	if end := off + uint64(len(data)); end > c.sizes[ino] {
		c.sizes[ino] = end
	}
	// Lazy metadata update: fire and forget.
	c.node.Send(p, c.b.MDSNode(c.b.HomeMDSOfIno(ino)), "meta-lazy",
		mdsReq{Op: mdsUpdateSize, Ino: ino, Off: off, Len: len(data), Origin: c.node}, 96)
	return nil
}

// SetSize publishes a new EOF to the home MDS synchronously and updates the
// local delegation cache. The hybrid cache's buffered-write path calls this
// before any data page lands in the cache, so flush-time write-back can
// clamp whole-page writes to the file's true size. Sizes never shrink
// (mdsUpdateSize takes the max), matching the extend-only Write path.
func (c *Core) SetSize(p *sim.Proc, ino uint64, size uint64) error {
	c.cpu.Exec(p, c.costs.DelegationCycles)
	c.Ops.Inc()
	resp := c.homeCall(p, c.b.HomeMDSOfIno(ino), mdsReq{Op: mdsUpdateSize, Ino: ino, Off: size, Len: 0})
	if err := respErr(resp); err != nil {
		return err
	}
	if size > c.sizes[ino] {
		c.sizes[ino] = size
	}
	return nil
}

// SizeOf reports the locally cached size of an inode (delegation cache).
func (c *Core) SizeOf(ino uint64) (uint64, bool) {
	size, ok := c.sizes[ino]
	return size, ok
}

// Read returns up to n bytes at off in a fresh buffer.
func (c *Core) Read(p *sim.Proc, ino uint64, off uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	got, err := c.ReadInto(p, ino, off, out)
	if err != nil || got == 0 {
		return nil, err
	}
	return out[:got], nil
}

// ReadInto fetches the data shards directly from the data servers and
// reassembles them in dst (reconstructing from parity if a server is down);
// it returns how many bytes it read, fewer than len(dst) only at EOF.
func (c *Core) ReadInto(p *sim.Proc, ino uint64, off uint64, dst []byte) (int, error) {
	s := c.Obs.Begin(p, "dfs.read")
	defer s.End(p)
	c.cpu.Exec(p, c.costs.PerOpCycles)
	c.Ops.Inc()
	if size, ok := c.sizes[ino]; ok {
		if off >= size {
			return 0, nil
		}
		if max := size - off; uint64(len(dst)) > max {
			dst = dst[:max]
		}
	}
	got, errs := c.b.readBlocksInto(p, c.node, ino, off, dst)
	if errs != "" {
		return 0, fmt.Errorf("%w: %s", ErrRemote, errs)
	}
	return got, nil
}

// lazyServe drains the one-way lazy metadata updates on every MDS. Started
// by NewBackend? No: the updates are one-way Sends to the "meta-lazy" port,
// handled here to keep the hot "meta" RPC port uncluttered.
func (b *Backend) lazyServe(p *sim.Proc, m *mdsNode) {
	port := m.node.Listen("meta-lazy")
	for {
		msg := port.Recv(p)
		req, ok := msg.Payload.(mdsReq)
		if !ok || req.Op != mdsUpdateSize {
			continue
		}
		m.cpu.Exec(p, b.cfg.MDSCycles/2)
		if a := m.attrs[req.Ino]; a != nil {
			if req.Off+uint64(req.Len) > a.Size {
				a.Size = req.Off + uint64(req.Len)
			}
			b.recallDelegations(p, m, req.Ino, a.Size, req.Origin)
		}
	}
}
