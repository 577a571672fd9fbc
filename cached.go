// The buffered (cached) data path: writes land in the hybrid cache, partial
// pages read-modify-write, and reads probe the cache and have the DPU fill
// what it lacks (the miss engine, fetchPages).

package dpc

import (
	"errors"

	"dpc/internal/dispatch"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/sim"
)

// writeBuffered stores data at off in the hybrid cache. A write that extends
// the file publishes the new EOF to the backend first (one metadata op).
func (f *File) writeBuffered(p *sim.Proc, qid int, off uint64, data []byte) error {
	c := f.c
	ps := uint64(c.cacheHost.L.PageSize)
	end := off + uint64(len(data))
	eof := f.Size()
	if end > eof {
		if err := c.setSize(p, qid, f.Ino, end); err != nil {
			return err
		}
		eof = end
	}
	// Only the head and tail pages of the range can be partial; batch their
	// read-modify-write bases in one pipelined fetch instead of two blocking
	// round trips inside the loop. A missing page (hole or beyond the old
	// EOF) modifies zeros, which is what the pooled buffer arrives holding.
	// The bases live in fixed two-element arrays and pooled page buffers —
	// no per-op slice, map, or scratch allocation on this path (regression
	// test: TestBufferedWriteRMWZeroScratchAllocs).
	var (
		rmwLPNs [2]uint64
		rmwBufs [2][]byte
		nr      int
	)
	first := off / ps
	last := (end - 1) / ps
	headCov := ps - off%ps
	if headCov > uint64(len(data)) {
		headCov = uint64(len(data))
	}
	if off%ps != 0 || headCov < ps {
		rmwLPNs[nr] = first
		nr++
	}
	if last != first && end%ps != 0 {
		rmwLPNs[nr] = last
		nr++
	}
	if nr > 0 {
		var reqs [2]pageFetch
		for i := 0; i < nr; i++ {
			rmwBufs[i] = c.pool.Get(int(ps))
			reqs[i] = pageFetch{lpn: rmwLPNs[i], dst: rmwBufs[i]}
		}
		if err := c.fetchPages(p, qid, f.Ino, reqs[:nr]); err != nil {
			for i := 0; i < nr; i++ {
				c.pool.Put(rmwBufs[i])
			}
			return err
		}
	}
	for done := uint64(0); done < uint64(len(data)); {
		lpn := (off + done) / ps
		po := (off + done) % ps
		n := ps - po
		if n > uint64(len(data))-done {
			n = uint64(len(data)) - done
		}
		var page []byte
		if po == 0 && n == ps {
			page = data[done : done+n]
		} else {
			// A partial page is by construction the first or last of the
			// range, so it is one of the (at most two) registered bases.
			page = rmwBufs[0]
			if nr > 1 && lpn == rmwLPNs[1] {
				page = rmwBufs[1]
			}
			copy(page[po:], data[done:done+n])
		}
		if err := c.writePageCached(p, qid, f.Ino, lpn, page, eof); err != nil {
			for i := 0; i < nr; i++ {
				c.pool.Put(rmwBufs[i])
			}
			return err
		}
		done += n
	}
	for i := 0; i < nr; i++ {
		c.pool.Put(rmwBufs[i])
	}
	return nil
}

// writePageCached inserts one page into the hybrid cache, asking the DPU to
// reclaim space when the bucket is full (the paper's front-end write flow).
// eof is the file's published size: the write-through fallback trims the
// page to it so a bypassing write never extends the file past its EOF.
func (c *Client) writePageCached(p *sim.Proc, qid int, ino, lpn uint64, page []byte, eof uint64) error {
	for attempt := 0; attempt < 4; attempt++ {
		if c.cacheHost.WritePage(p, ino, lpn, page) {
			return nil
		}
		if err := c.command(p, qid, nvme.FileOpCacheEvict, dispatch.ReqHeader{Ino: ino, Off: lpn, Len: 4}); err != nil {
			return err
		}
	}
	// The bucket would not drain (all entries hot); write through instead.
	off := lpn * uint64(c.cacheHost.L.PageSize)
	if off >= eof {
		return nil
	}
	if end := off + uint64(len(page)); end > eof {
		page = page[:eof-off]
	}
	hdr := dispatch.ReqHeader{Ino: ino, Off: off, Len: uint32(len(page))}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp:  nvme.FileOpWrite,
		Header:  c.header(hdr),
		Payload: page,
	})
	if err := statusErr(comp.Status); err != nil {
		return err
	}
	// Cache coherence, as in writeDirect: a DPU fill whose backend read
	// predates this write may have installed the old page while the write was
	// in flight, and buffered reads would serve it as current.
	c.cacheHost.MergeIfPresent(p, ino, lpn, 0, page)
	return nil
}

// readBuffered reads into dst through the hybrid cache. Like a kernel
// page-cache read, the result is clamped to the effective EOF and holes read
// as zeros. The request array is stack-sized for reads spanning up to four
// pages, the common case, so cache-hit reads allocate nothing.
func (f *File) readBuffered(p *sim.Proc, qid int, off uint64, dst []byte) (int, error) {
	c := f.c
	eof := f.Size()
	if off >= eof {
		return 0, nil
	}
	n := len(dst)
	if max := eof - off; uint64(n) > max {
		n = int(max)
	}
	dst = dst[:n]
	// Holes leave their range of dst untouched, so it must start zeroed.
	clear(dst)
	ps := uint64(c.cacheHost.L.PageSize)
	var reqArr [4]pageFetch
	reqs := reqArr[:0]
	for done := 0; done < n; {
		lpn := (off + uint64(done)) / ps
		po := (off + uint64(done)) % ps
		k := int(ps - po)
		if k > n-done {
			k = n - done
		}
		reqs = append(reqs, pageFetch{lpn: lpn, po: int(po), dst: dst[done : done+k]})
		done += k
	}
	if err := c.fetchPages(p, qid, f.Ino, reqs); err != nil {
		return 0, err
	}
	return n, nil
}

// pageFetch is one page's worth of a multi-page cached operation: the page's
// bytes from offset po onward are copied into dst (len(dst) ≤ PageSize-po).
// Pages absent from both cache and backend (holes, beyond EOF) leave dst
// untouched, so callers see zeros in a fresh buffer.
type pageFetch struct {
	lpn uint64
	po  int
	dst []byte
}

// pageMiss is one absent page in flight through the fill protocol. It names
// its request by index into the caller's slice — not by pointer — so a
// stack-allocated request array (the RMW and small-read paths) never escapes
// to the heap through the window.
type pageMiss struct {
	idx  int
	pend *nvmefs.Pending
}

// missSubmission asks the DPU to install the page in the host cache. The
// cached read path has no other way to the backend: the cache may hold bytes
// newer than the backend's, so a read never goes around it.
func (c *Client) missSubmission(ino, lpn, ps uint64) nvmefs.Submission {
	hdr := dispatch.ReqHeader{Ino: ino, Off: lpn * ps, Len: uint32(ps), Flags: dispatch.FlagFillCache}
	return nvmefs.Submission{FileOp: nvme.FileOpRead, Header: c.header(hdr), RHLen: 8, ReadLen: int(ps)}
}

// fetchPages serves a batch of pages through the hybrid cache: probe, fill,
// re-probe. Hits are copied straight out of host memory (a lookup waits out
// a held entry lock, so a miss means the page is absent); misses are filled
// by the DPU with their submissions pipelined under the client's in-flight
// window and striped across queues starting at qid, each wave's per-queue
// share riding a single doorbell. Waits retire in submission order;
// completions that finish early recycle their slot and CID at IRQ time, so
// the window keeps moving regardless of wait order.
func (c *Client) fetchPages(p *sim.Proc, qid int, ino uint64, reqs []pageFetch) error {
	ps := uint64(c.cacheHost.L.PageSize)
	// Hits copy straight from host memory into each request's dst
	// (LookupInto: no intermediate page slice). Every absent page sits in
	// exactly one of two rings on the stack: the miss queue (request
	// indices, a slot per request) and the window in flight (a slot per
	// command the window allows). Reads of up to 16 pages under the default
	// window allocate neither.
	var queueArr [16]int
	queue := queueArr[:]
	if len(reqs) > len(queue) {
		queue = make([]int, len(reqs))
	}
	qhead, qn := 0, 0
	for i := range reqs {
		if !c.cacheHost.LookupInto(p, ino, reqs[i].lpn, reqs[i].po, reqs[i].dst) {
			queue[qn] = i
			qn++
		}
	}
	if qn == 0 {
		return nil
	}
	w := c.sys.Driver.Window()
	stripes := min(c.queueCount(), w)
	var inflightArr [16]pageMiss
	inflight := inflightArr[:]
	if w > len(inflight) {
		inflight = make([]pageMiss, w)
	}
	head, n, seq := 0, 0, 0
	for qn > 0 || n > 0 {
		if qn > 0 && n < w {
			take := min(w-n, qn)
			// Group the wave by stripe, the k-th page of the wave going to
			// stripe (seq+k) % stripes, and batch each group on its queue
			// in wave order: a deterministic submit order, no map.
			for s := range stripes {
				q := (qid + s) % c.queueCount()
				k0 := ((s-seq)%stripes + stripes) % stripes
				for k := k0; k < take; k += stripes {
					idx := queue[(qhead+k)%len(queue)]
					inflight[(head+n)%w] = pageMiss{idx: idx, pend: c.enqueue(p, q, c.missSubmission(ino, reqs[idx].lpn, ps))}
					n++
				}
				if k0 < take {
					c.ring(p, q)
				}
			}
			seq += take
			qhead, qn = (qhead+take)%len(queue), qn-take
		}
		ms := inflight[head]
		inflight[head] = pageMiss{}
		head, n = (head+1)%w, n-1
		comp := ms.pend.Wait(p)
		req := &reqs[ms.idx]
		if err := statusErr(comp.Status); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // hole or beyond EOF: dst keeps its zeros
			}
			return err
		}
		if filled, _ := dispatch.ParseFillHeader(comp.Header); !filled {
			// The DPU could not fill the bucket; data came back inline.
			if req.po < len(comp.Data) {
				copy(req.dst, comp.Data[req.po:])
			}
			continue
		}
		// Installed (or already there): read it from host memory. A page
		// evicted again before this probe is simply absent, and goes round
		// for another fill.
		if !c.cacheHost.LookupInto(p, ino, req.lpn, req.po, req.dst) {
			queue[(qhead+qn)%len(queue)] = ms.idx
			qn++
		}
	}
	return nil
}
