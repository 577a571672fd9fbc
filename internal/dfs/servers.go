package dfs

import (
	"slices"
	"time"

	"dpc/internal/fabric"
	"dpc/internal/sim"
)

// mdsServe is one MDS worker loop.
func (b *Backend) mdsServe(p *sim.Proc, m *mdsNode) {
	port := m.node.Listen("meta")
	for {
		rpc := fabric.RecvRPC(p, port)
		req := rpc.Req.(mdsReq)
		m.cpu.Exec(p, b.cfg.MDSCycles)
		b.MDSOps.Inc()

		// Entry-MDS forwarding: metadata is evenly distributed across the
		// MDSes; a request that landed on the wrong server is proxied to
		// its home (extra hop + extra MDS CPU), exactly the cost the
		// optimized client's metadata view avoids.
		home := m.idx
		switch req.Op {
		case mdsCreate, mdsLookup, mdsDelegate:
			home = b.HomeMDSOfPath(req.Path)
		case mdsGetattr, mdsWriteInline, mdsReadProxy, mdsUpdateSize:
			home = b.HomeMDSOfIno(req.Ino)
		}
		if home != m.idx {
			if req.Forwarded {
				rpc.Reply(p, m.node, mdsResp{Err: "misrouted forward"}, 64)
				continue
			}
			b.Forwards.Inc()
			fwd := req
			fwd.Forwarded = true
			resp := m.node.Call(p, b.mds[home].node, "meta", fwd, 96+len(req.Path)+len(req.Data)).(mdsResp)
			rpc.Reply(p, m.node, resp, 96+len(resp.Data))
			continue
		}

		resp := b.mdsHandle(p, m, req)
		rpc.Reply(p, m.node, resp, 96+len(resp.Data))
	}
}

// mdsHandle executes a request on its home MDS.
func (b *Backend) mdsHandle(p *sim.Proc, m *mdsNode, req mdsReq) mdsResp {
	switch req.Op {
	case mdsCreate:
		if _, dup := m.paths[req.Path]; dup {
			return mdsResp{Err: "exists"}
		}
		ino := m.nextIno
		m.nextIno += uint64(b.cfg.MDSCount)
		m.paths[req.Path] = ino
		// The attr's home is this same MDS because ino % MDSCount == idx.
		m.attrs[ino] = &fileAttr{}
		return mdsResp{Ino: ino}

	case mdsLookup, mdsDelegate:
		ino, ok := m.paths[req.Path]
		if !ok {
			return mdsResp{Err: "not found"}
		}
		size := uint64(0)
		if a := m.attrs[ino]; a != nil {
			size = a.Size
		}
		if req.Op == mdsDelegate && req.Origin != nil {
			// Grant a delegation: record the holder so conflicting writes
			// from other clients trigger a recall.
			if holders := m.delegations[ino]; !slices.Contains(holders, req.Origin) {
				m.delegations[ino] = append(holders, req.Origin)
			}
		}
		return mdsResp{Ino: ino, Size: size}

	case mdsGetattr:
		a, ok := m.attrs[req.Ino]
		if !ok {
			return mdsResp{Err: "not found"}
		}
		return mdsResp{Ino: req.Ino, Size: a.Size}

	case mdsUpdateSize:
		a, ok := m.attrs[req.Ino]
		if !ok {
			return mdsResp{Err: "not found"}
		}
		if req.Off+uint64(req.Len) > a.Size {
			a.Size = req.Off + uint64(req.Len)
		}
		b.recallDelegations(p, m, req.Ino, a.Size, req.Origin)
		return mdsResp{}

	case mdsWriteInline:
		// Server-side EC: the standard client ships whole blocks to the
		// MDS, which encodes and distributes them.
		a, ok := m.attrs[req.Ino]
		if !ok {
			return mdsResp{Err: "not found"}
		}
		m.cpu.Exec(p, b.cfg.MDSECCyclesPerByte*int64(len(req.Data)))
		if err := b.writeBlocksFrom(p, m.node, req.Ino, req.Off, req.Data); err != "" {
			return mdsResp{Err: err}
		}
		if req.Off+uint64(len(req.Data)) > a.Size {
			a.Size = req.Off + uint64(len(req.Data))
		}
		b.recallDelegations(p, m, req.Ino, a.Size, req.Origin)
		return mdsResp{}

	case mdsReadProxy:
		a, ok := m.attrs[req.Ino]
		if !ok {
			return mdsResp{Err: "not found"}
		}
		n := req.Len
		if req.Off >= a.Size {
			return mdsResp{}
		}
		if max := a.Size - req.Off; uint64(n) > max {
			n = int(max)
		}
		data := make([]byte, n)
		got, err := b.readBlocksInto(p, m.node, req.Ino, req.Off, data)
		if err != "" {
			return mdsResp{Err: err}
		}
		return mdsResp{Data: data[:got]}
	}
	return mdsResp{Err: "bad op"}
}

// recallDelegations notifies every delegation holder except the writer
// that the inode changed (one-way messages; holders refresh their cached
// metadata). The writer keeps its delegation.
func (b *Backend) recallDelegations(p *sim.Proc, m *mdsNode, ino, size uint64, writer *fabric.Node) {
	for _, holder := range m.delegations[ino] {
		if holder == writer {
			continue
		}
		m.node.Send(p, holder, "recall", recallMsg{Ino: ino, Size: size}, 48)
		b.Recalls.Inc()
	}
}

// dsApply runs c's request on a data server, at the instant its execution
// ends, writes the reply into c and returns the media time and the reply's
// size. A shard's stored bytes are the server's own: an overwrite reuses
// them, and a read hands out a copy.
func (b *Backend) dsApply(d *dsNode, c *dsCall) (time.Duration, int) {
	bytes := 0
	c.rep.OK = true
	if c.req.Op == dsWrite {
		for _, s := range c.req.Shards {
			d.store[s.Key] = append(d.store[s.Key][:0], s.Data...)
			bytes += len(s.Data)
		}
		return b.cfg.DSWriteMedia + time.Duration(int64(bytes)*int64(time.Second)/b.cfg.DSMediaBps), 32
	}
	for _, s := range c.req.Shards {
		if data, ok := d.store[s.Key]; ok {
			c.rep.Shards = append(c.rep.Shards, dsShard{Key: s.Key, Data: append([]byte(nil), data...)})
			bytes += len(data)
		}
	}
	return b.cfg.DSReadMedia + time.Duration(int64(bytes)*int64(time.Second)/b.cfg.DSMediaBps), 32 + bytes
}

// dsCallTo sends c to a data server's "data" port and leaves the reply in
// c.rep: the server's own, or a copy of a down server's shared reply.
func dsCallTo(p *sim.Proc, from, ds *fabric.Node, c *dsCall, reqBytes int) {
	if r := from.Call(p, ds, "data", c, reqBytes).(*dsCall); r != c {
		c.rep = r.rep
	}
}

// parallelCalls issues one data-server call per target, each from its own
// process, and waits for all replies (the fan-out a striping client or MDS
// performs).
func parallelCalls(p *sim.Proc, from *fabric.Node, targets []*fabric.Node, calls []*dsCall, reqBytes []int) {
	p.Fork("fanout", len(targets), func(pp *sim.Proc, i int) {
		dsCallTo(pp, from, targets[i], calls[i], reqBytes[i])
	})
}

// writeBlocksFrom erasure-codes data (aligned to BlockSize groups) and
// writes the shards to the data servers, batching shards per server into a
// single RPC. `from` is the issuing node: an MDS for server-side EC or a
// client/DPU for client-side EC.
func (b *Backend) writeBlocksFrom(p *sim.Proc, from *fabric.Node, ino, off uint64, data []byte) string {
	if off%BlockSize != 0 {
		return "unaligned write"
	}
	// Indexed by data server, so the parallel RPCs below are issued in
	// ascending server order and virtual time repeats from run to run.
	perDS := make([][]dsShard, len(b.ds))
	for done := 0; done < len(data); done += BlockSize {
		end := done + BlockSize
		if end > len(data) {
			end = len(data)
		}
		blk := (off + uint64(done)) / BlockSize
		block := make([]byte, BlockSize)
		copy(block, data[done:end])
		shards := b.coder.Split(block)
		parity, err := b.coder.Encode(shards)
		if err != nil {
			return err.Error()
		}
		all := append(shards, parity...)
		placement := b.Placement(ino, blk)
		for i, ds := range placement {
			perDS[ds] = append(perDS[ds], dsShard{Key: ShardKey(ino, blk, i), Data: all[i]})
		}
	}
	var targets []*fabric.Node
	var calls []*dsCall
	var sizes []int
	for ds, shards := range perDS {
		if len(shards) == 0 {
			continue
		}
		bytes := 0
		for _, s := range shards {
			bytes += len(s.Data) + len(s.Key)
		}
		targets = append(targets, b.ds[ds].node)
		calls = append(calls, &dsCall{req: dsReq{Op: dsWrite, Shards: shards}})
		sizes = append(sizes, 64+bytes)
	}
	parallelCalls(p, from, targets, calls, sizes)
	for _, c := range calls {
		if !c.rep.OK {
			return "ds write failed"
		}
	}
	return ""
}

// readBlocksInto reads len(dst) bytes at off into dst and returns how many
// it joined, fetching data shards in parallel (batched per data server) and
// reconstructing from parity when a data server is down.
func (b *Backend) readBlocksInto(p *sim.Proc, from *fabric.Node, ino, off uint64, dst []byte) (int, string) {
	if off%BlockSize != 0 {
		return 0, "unaligned read"
	}
	nBlocks := (len(dst) + BlockSize - 1) / BlockSize
	// Request the data shards of every block, grouped by data server (a
	// slice, not a map: see writeBlocksFrom).
	perDS := make([][]dsShard, len(b.ds))
	for bi := 0; bi < nBlocks; bi++ {
		blk := off/BlockSize + uint64(bi)
		placement := b.Placement(ino, blk)
		for i := 0; i < b.cfg.ECData; i++ {
			ds := placement[i]
			perDS[ds] = append(perDS[ds], dsShard{Key: ShardKey(ino, blk, i)})
		}
	}
	got := map[string][]byte{}
	var targets []*fabric.Node
	var calls []*dsCall
	var sizes []int
	for ds, keys := range perDS {
		if len(keys) == 0 {
			continue
		}
		targets = append(targets, b.ds[ds].node)
		calls = append(calls, &dsCall{req: dsReq{Op: dsRead, Shards: keys}})
		sizes = append(sizes, 64+len(keys)*24)
	}
	parallelCalls(p, from, targets, calls, sizes)
	for _, c := range calls {
		for _, s := range c.rep.Shards {
			got[s.Key] = s.Data
		}
	}

	out := dst[:0]
	for bi := 0; bi < nBlocks; bi++ {
		blk := off/BlockSize + uint64(bi)
		shards := make([][]byte, b.cfg.ECData+b.cfg.ECParity)
		missing := false
		for i := 0; i < b.cfg.ECData; i++ {
			shards[i] = got[ShardKey(ino, blk, i)]
			if shards[i] == nil {
				missing = true
			}
		}
		if missing {
			// Degraded read: fetch parity shards and reconstruct.
			placement := b.Placement(ino, blk)
			for i := b.cfg.ECData; i < len(placement); i++ {
				c := &dsCall{req: dsReq{Op: dsRead, Shards: []dsShard{{Key: ShardKey(ino, blk, i)}}}}
				dsCallTo(p, from, b.ds[placement[i]].node, c, 96)
				for _, s := range c.rep.Shards {
					shards[i] = s.Data
				}
			}
			if err := b.coder.Reconstruct(shards); err != nil {
				return 0, "reconstruct: " + err.Error()
			}
		}
		out = b.coder.AppendJoin(out, shards[:b.cfg.ECData], min(BlockSize, len(dst)-len(out)))
	}
	return len(out), ""
}
