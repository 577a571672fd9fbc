// The direct (O_DIRECT) data path: one windowed chunk pipeline serves both
// directions, straight between the caller's buffer and the backend.

package dpc

import (
	"dpc/internal/dispatch"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/sim"
)

// writeDirect writes data at off through the direct pipeline, then keeps the
// hybrid cache coherent with what the backend now holds and publishes the
// new EOF.
func (f *File) writeDirect(p *sim.Proc, qid int, off uint64, data []byte) error {
	c := f.c
	if _, err := f.direct(p, qid, off, data, true); err != nil {
		return err
	}
	// Cache coherence: a cached copy of any page in the range (possibly
	// dirty with earlier buffered data) must not keep — and later flush —
	// stale bytes over what the backend now holds.
	if c.cacheHost != nil {
		ps := uint64(c.cacheHost.L.PageSize)
		for done := uint64(0); done < uint64(len(data)); {
			lpn := (off + done) / ps
			po := (off + done) % ps
			n := ps - po
			if n > uint64(len(data))-done {
				n = uint64(len(data)) - done
			}
			c.cacheHost.MergeIfPresent(p, f.Ino, lpn, int(po), data[done:done+n])
			done += n
		}
	}
	end := off + uint64(len(data))
	// The backend learned the new EOF from the write itself; publish it so
	// other handles' buffered reads are not clamped to a stale size.
	c.sizes.setMax(f.Ino, end)
	return nil
}

// direct moves buf to (write) or from (read) the file at off as MaxIO
// chunks; chunk i covers buf[i·MaxIO:] up to MaxIO bytes. It returns the
// bytes read, which a short chunk ends at EOF (0 for a write).
//
// O_DIRECT semantics come first: dirty buffered pages of the inode reach the
// backend before the transfer, or a read would see pre-write data and a
// later daemon flush of a pre-write snapshot would overwrite a write.
//
// An I/O of one chunk is one Submit, which parks the caller once. Larger
// ones run the pipeline: up to Window() chunks in flight on the caller's queue,
// each burst of Enqueues ringing the doorbell once, retired in submission
// order. A read chunk's ReadInto aims the IRQ-side copy (or inline
// delivery) straight at its slice of buf, so retiring it moves no bytes.
// The first failure, or a read's first short chunk, stops submission; what
// is already in flight is drained, so no completion — and no late error
// that deserves at least its retry accounting — is abandoned mid-air.
// Everything retiring after a short chunk reads past the EOF it observed
// and is discarded, payload and error alike: it cannot change the bytes
// below EOF already in buf.
func (f *File) direct(p *sim.Proc, qid int, off uint64, buf []byte, write bool) (int, error) {
	c := f.c
	if c.cacheHost != nil && c.cacheHost.HasDirty(p, f.Ino) {
		if err := f.syncWriteback(p, qid); err != nil {
			return 0, err
		}
	}
	maxIO := c.sys.Driver.MaxIO()
	if len(buf) > 0 && len(buf) <= maxIO {
		comp := c.submit(p, qid, f.chunk(off, buf, 0, len(buf), write))
		if err := statusErr(comp.Status); err != nil || write {
			return 0, err
		}
		return copy(buf, comp.Data), nil // self-copy no-op when ReadInto landed it
	}
	w := c.sys.Driver.Window()
	// The chunks in flight, oldest first: inflight[head], then n-1 more
	// around the ring. The default window fits the array on the stack.
	var inflightArr [16]*nvmefs.Pending
	inflight := inflightArr[:]
	if w > len(inflight) {
		inflight = make([]*nvmefs.Pending, w)
	}
	var (
		head, n  int
		next     int // first byte not yet submitted
		retired  int // end of the chunks retired so far
		got      int
		short    bool
		firstErr error
	)
	for next < len(buf) || n > 0 {
		if firstErr == nil && !short && next < len(buf) && n < w {
			for next < len(buf) && n < w {
				end := min(next+maxIO, len(buf))
				inflight[(head+n)%w] = c.enqueue(p, qid, f.chunk(off, buf, next, end, write))
				n++
				next = end
			}
			c.ring(p, qid)
		}
		if n == 0 {
			break
		}
		comp := inflight[head].Wait(p)
		inflight[head] = nil
		head, n = (head+1)%w, n-1
		lo := retired
		retired = min(retired+maxIO, len(buf))
		if short {
			continue
		}
		if err := statusErr(comp.Status); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if firstErr != nil || write {
			continue
		}
		if len(comp.Data) > 0 {
			copy(buf[lo:], comp.Data) // self-copy no-op when ReadInto landed it
		}
		got = lo + len(comp.Data)
		short = got < retired // EOF
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return got, nil
}

// chunk is the submission that moves buf[next:end] to or from the file at
// off+next. Its header lands in the client's header buffer, so it must be
// submitted before the next one is built.
func (f *File) chunk(off uint64, buf []byte, next, end int, write bool) nvmefs.Submission {
	c := f.c
	hdr := dispatch.ReqHeader{Ino: f.Ino, Off: off + uint64(next), Len: uint32(end - next)}
	sub := nvmefs.Submission{FileOp: nvme.FileOpRead, RHLen: 1, ReadLen: end - next,
		ReadInto: buf[next:end], HeaderInto: c.statusSink[:]}
	if write {
		if next == 0 {
			// The first chunk invalidates journaled page history for the
			// inode (see FlagInvalidate): the pre-write sync left the
			// backend current, and success is only reported after this
			// chunk — and therefore the bump — completed.
			hdr.Flags = dispatch.FlagInvalidate
		}
		sub = nvmefs.Submission{FileOp: nvme.FileOpWrite, Payload: buf[next:end]}
	}
	sub.Header = c.header(hdr)
	return sub
}
