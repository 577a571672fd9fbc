// NVME-TGT, the DPU side of nvme-fs: one thread per queue fetches SQEs in
// ring order; each command's buffers are pulled, its handler run and its
// completion posted by a worker (Figure 4's four DMAs).

package nvmefs

import (
	"dpc/internal/fault"
	"dpc/internal/mem"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// tgtLoop is one NVME-TGT thread: it consumes SQEs for a single queue.
func (d *Driver) tgtLoop(p *sim.Proc, qs *queueState) {
	costs := d.m.Cfg.Costs
	for {
		qs.kick.Recv(p)
		p.Sleep(costs.TGTPollDelay)
		// The doorbell register is device-local: reading it is free.
		tail := int(d.m.DPUMem.Uint32(qs.doorbell))
		for qs.qp.SQHead != tail {
			d.processOne(p, qs)
			// Re-read the doorbell: the host may have advanced it.
			tail = int(d.m.DPUMem.Uint32(qs.doorbell))
		}
	}
}

// fetched carries one consumed SQE from queue drain to dispatch: everything
// the TGT learned before any buffer was pulled. In multi-tenant mode it is
// the scheduler's unit of work — the PRP and payload DMAs are deferred until
// the scheduler actually dispatches it, so a shed or dead command never
// spends PCIe bandwidth.
type fetched struct {
	qs   *queueState
	sqe  nvme.SQE
	in   []byte // pooled write buffer [header(64)|payload]: inline-window copy-out or pullBuffers' DMAs
	gen  int    // queue generation the SQE was fetched under
	ts   obs.Span
	enq  sim.Time // fetch instant; scheduler wait = dispatch instant − enq
	cost int64    // dispatch cost estimate: command overhead + bytes both ways
}

// processOne consumes one SQE: the 4-DMA path of Figure 4. The TGT thread
// performs the SQE fetch and parse synchronously (they keep queue order),
// then hands the request to an nvme-worker so slow file stacks do not
// serialize the queue (DPFS's single HAL thread does exactly that, which is
// part of why it cannot scale). In multi-tenant mode the hand-off goes
// through the DPU scheduler instead: the TGT only drains and admits; the
// payload pull and execution happen when the fair policy dispatches
// the command to a worker.
func (d *Driver) processOne(p *sim.Proc, qs *queueState) {
	f, ok := d.fetchOne(p, qs)
	switch {
	case !ok: // consumed, nothing to dispatch
	case d.sched != nil:
		d.sched.offer(p, f)
	case d.pullBuffers(p, &f):
		d.handOff(f)
	}
	f.ts.End(p)
}

// job carries one command to the nvme-worker process that executes it:
// handOff fills a record from the driver's free list and starts run, the
// method value built once per record, so a hand-off allocates nothing (the
// engine reuses a finished worker's process).
type job struct {
	d   *Driver
	f   fetched
	run func(p *sim.Proc)
}

// handOff starts an nvme-worker for f at the current instant.
func (d *Driver) handOff(f fetched) {
	j := popLast(&d.freeJobs)
	if j == nil {
		j = &job{d: d}
		j.run = j.execute
	}
	j.f = f
	d.m.Eng.Go("nvme-worker", j.run)
}

// execute is an nvme-worker's body: it returns its record to the free list
// and runs the command.
func (j *job) execute(p *sim.Proc) {
	d, f := j.d, j.f
	j.f = fetched{}
	d.freeJobs = append(d.freeJobs, j)
	d.execute(p, f)
}

// fetchOne performs the queue-order part of the TGT path: the SQE fetch
// (①), the inline-window copy-out, SQHead advance, fault hooks, parse,
// validation and the command-liveness check. ok=false means the SQE was
// consumed but produced no dispatchable work (dropped, failed, or already
// aborted): any failure completion is already posted, and the result
// carries only the TGT span, which the caller closes.
func (d *Driver) fetchOne(p *sim.Proc, qs *queueState) (fetched, bool) {
	costs := d.m.Cfg.Costs
	link := d.m.PCIe
	hm := d.m.HostMem
	gen := qs.gen

	// A controller freeze (possibly fired on another queue — it is
	// controller-wide) stalls this TGT thread until the thaw instant.
	if until := d.faults.FrozenUntil(); until > p.Now() {
		p.SleepUntil(until)
	}

	// The TGT span opens before the SQE fetch (the fetch itself is part of
	// the TGT's work) and is linked under the submitter's span once the CID
	// is decoded.
	ts := d.o.Begin(p, "nvmefs.tgt")

	// ① Retrieve the SQE.
	sqeIdx := qs.qp.SQHead
	sqeAddr := qs.qp.SQ.EntryAddr(sqeIdx)
	// A private copy, never a view: KindCorruptSQE below flips a byte of it.
	var sqeImg [nvme.SQESize]byte
	sqeBytes := sqeImg[:]
	link.DMAReadInto(p, sqeBytes, hm, sqeAddr, "sqe")
	if qs.gen != gen {
		// A reset re-armed the ring while the fetch was in flight: the
		// bytes belong to the old generation. Drop them without touching
		// the (already re-zeroed) head index.
		return fetched{ts: ts}, false
	}
	// An inline write's bytes live in the window slot tied to this ring
	// position. They must be copied out device-locally BEFORE SQHead
	// advances: the moment the slot frees, a parked submitter may reuse the
	// position and PIO fresh bytes over them. (The later fault hooks can
	// sleep, so copying here is load-bearing, not an optimization.)
	var inBytes []byte
	if d.cfg.InlineMax > 0 {
		if peek, err := nvme.UnmarshalSQE(sqeBytes); err == nil &&
			peek.PSDTWrite == nvme.PSDTInline && peek.WriteLen > 0 {
			wl := int(peek.WriteLen)
			if wl > qs.inStride {
				wl = qs.inStride
			}
			// (On the drop paths below the buffer is simply left to the GC.)
			inBytes = d.pool.Get(wl)
			copy(inBytes, d.m.DPUMem.Slice(qs.inWin+mem.Addr(sqeIdx*qs.inStride), wl))
		}
	}
	qs.qp.SQHead = qs.qp.SQ.Next(qs.qp.SQHead)
	// Consuming the SQE frees a ring slot: a submitter blocked on SQFull
	// may enqueue (and batch) its next command while this one executes.
	qs.sqCond.Signal()

	corrupted := false
	if kind, delay, ok := d.faults.At(fault.SiteTGT); ok {
		switch kind {
		case fault.KindCorruptSQE:
			// Flip the opcode byte: the entry parses but fails validation,
			// so the host gets a retryable StatusCorrupt. The CID and token
			// bytes are untouched — a corruption that mangles those is the
			// unknown-CID path exercised by KindCorruptCQE instead.
			sqeBytes[0] ^= 0xFF
			corrupted = true
		case fault.KindWorkerCrash:
			// The command was consumed but never parsed or executed; the
			// host's deadline will notice and retry (no dedup entry exists,
			// so the retry executes fresh).
			d.WorkerCrashes++
			return fetched{ts: ts}, false
		case fault.KindFreeze:
			// FrozenUntil was set by At; the stall starts here and every
			// other queue picks it up at its next fetch.
			p.Sleep(delay)
		}
	}

	sqe, err := nvme.UnmarshalSQE(sqeBytes)
	if err != nil {
		// The entry is unparseable: no trustworthy CID to complete. Count
		// it and drop; the submitter's deadline turns this into a retry.
		d.CorruptSQEs++
		return fetched{ts: ts}, false
	}
	ts.SetParent(qs.spanOf(sqe.CID))
	d.m.DPUExec(p, costs.DPUCmdParse)

	if err := sqe.Validate(); err != nil {
		status := nvme.StatusInvalid
		if corrupted {
			// In-flight corruption, not a malformed submission: report a
			// retryable status so the (intact) original gets resubmitted.
			d.CorruptSQEs++
			status = nvme.StatusCorrupt
		}
		d.complete(p, qs, gen, sqe, Response{Status: status})
		return fetched{ts: ts}, false
	}
	// The command must still be live before its buffers are read: an
	// injected stall between the SQE fetch and here (a freeze outlasts the
	// command deadline) means the abort path may have recycled the slot the
	// PRPs point at — executing with another command's bytes, and worse,
	// caching that response under this token, would corrupt the retry.
	// Dropping is safe: the deadline already turned this into a retry.
	if qs.live(gen, sqe.CID, sqe.Token) == nil {
		return fetched{ts: ts}, false
	}
	return fetched{qs: qs, sqe: sqe, in: inBytes, gen: gen, ts: ts, enq: p.Now(),
		cost: sqeCostEstimate(sqe)}, true
}

// sqeCostEstimate is the scheduler's per-command cost in bytes: a fixed
// command overhead (SQE + PRP + CQE traffic) plus the declared transfer
// lengths in both directions. It is computable before any buffer DMA, which
// is what lets admission control shed a command at zero PCIe cost.
func sqeCostEstimate(sqe nvme.SQE) int64 {
	return 512 + int64(sqe.WriteLen) + int64(sqe.ReadLen)
}

// pullBuffers performs steps ② and ③ for a fetched command: the PRP/header
// fetch and the payload pull (both skipped for inline writes, which already
// delivered their bytes through the window). ok=false means the window bytes
// could not satisfy a corrupted inline SQE; a retryable completion was
// already posted. The DMA'd bytes must survive the handler's parks, so they
// land in a pooled buffer (f.in, laid out like an inline window slot) that
// execute recycles when the command has completed.
func (d *Driver) pullBuffers(p *sim.Proc, f *fetched) bool {
	link := d.m.PCIe
	hm := d.m.HostMem
	qs, sqe, gen := f.qs, f.sqe, f.gen
	// ② Locate the data buffer: the PRP/buffer-descriptor fetch also
	// brings in the 64-byte file-semantic request header that sits at the
	// head of the write buffer. An inline write already delivered both
	// header and payload through the window — steps ② and ③ vanish.
	switch {
	case sqe.PSDTWrite == nvme.PSDTInline && sqe.WriteLen > 0:
		if f.in == nil || len(f.in) < int(sqe.WHLen) {
			// The peek ran on pre-corruption bytes; a mangled PSDT bit or
			// length cannot be satisfied from the window. Fail retryably.
			d.complete(p, qs, gen, sqe, Response{Status: nvme.StatusCorrupt})
			return false
		}
	case sqe.WriteLen > 0:
		n := max(int(sqe.WriteLen)-64, 0) // payload bytes after the header
		f.in = d.pool.Get(64 + n)
		link.DMAReadInto(p, f.in[:64], hm, mem.Addr(sqe.PRPWrite[0]), "prp")
		if n > 0 {
			// ③ Read the payload in one contiguous transfer.
			link.DMAReadInto(p, f.in[64:], hm, mem.Addr(sqe.PRPWrite[0])+64, "data-in")
		}
	}
	return true
}

// execute runs a dispatched command to completion: dedup lookup, handler,
// response write-back (④ rides in complete). In single-tenant mode it runs
// on the nvme-worker handOff started for the command; in multi-tenant
// mode it runs inline on the dispatch worker the scheduler granted it to.
func (d *Driver) execute(wp *sim.Proc, f fetched) {
	link := d.m.PCIe
	hm := d.m.HostMem
	qs, sqe, gen := f.qs, f.sqe, f.gen
	req := Request{QID: qs.qp.ID, Tenant: qs.tenant, SQE: sqe}
	if n := int(sqe.ReadLen) - d.cfg.RHCap; n > 0 {
		// Eagerly: filling it on demand needs a pointer in the Request,
		// which then escapes to the heap.
		req.out = d.pool.Get(n)
	}
	req.rh = d.pool.Get(int(sqe.RHLen))
	if f.in != nil {
		req.Header = f.in[:sqe.WHLen]
		if len(f.in) > 64 {
			req.Data = f.in[64:]
		}
	}
	ws := d.o.BeginChild(wp, f.ts, "nvmefs.worker")
	var resp Response
	if cached, ok := qs.execGet(sqe.Token); ok {
		// This token already executed (a retry of a command whose
		// completion was lost): replay the recorded response instead of
		// running the handler a second time.
		d.DedupHits++
		resp = cached
	} else {
		resp = d.handler(wp, req)
		// Record the response for retry dedup — except retryable
		// statuses: those mean the op did NOT take effect, so a retry
		// must re-execute it rather than replay the failure forever.
		if d.faults != nil && !nvme.Retryable(resp.Status) {
			qs.execPut(d.cfg.Depth, sqe.Token, resp)
		}
	}
	// Write back the response header + data, one contiguous DMA — but
	// only while the attempt is still live: if its deadline expired or a
	// reset failed it, the slot the PRP points at may already belong to
	// another command, and writing into it would corrupt that command's
	// response. (The abort path quarantines slots for slotGrace, which
	// outlasts any transfer that passed this check.)
	if sqe.ReadLen > 0 && resp.Status == nvme.StatusOK && (len(resp.Header) > 0 || len(resp.Data) > 0) {
		if len(resp.Header) > int(sqe.RHLen) {
			// A handler bug, not a transport fault: fail the command
			// cleanly instead of crashing the TGT.
			d.HeaderOverflows++
			resp = Response{Status: nvme.StatusIOError}
		} else if sqe.PSDTRead == nvme.PSDTInline {
			// Inline read: no data-out DMA here. complete() folds the
			// response into the enlarged-CQE window in one transfer.
			if len(resp.Data) > int(sqe.ReadLen)-d.cfg.RHCap {
				resp.Data = resp.Data[:int(sqe.ReadLen)-d.cfg.RHCap]
			}
			d.InlineBytes += int64(len(resp.Data))
			resp.Result = uint32(len(resp.Data))
		} else if qs.live(gen, sqe.CID, sqe.Token) != nil {
			// One DMA carries [header | zeros up to RHCap | data], truncated
			// to ReadLen, gathered straight into the host read buffer.
			n := min(d.cfg.RHCap+len(resp.Data), int(sqe.ReadLen))
			putResponse(link.DMAWriteView(wp, hm, mem.Addr(sqe.PRPRead[0]), n, "data-out"), d.cfg.RHCap, resp)
			resp.Result = uint32(len(resp.Data))
		}
	}
	d.complete(wp, qs, gen, sqe, resp)
	// The handler has returned and the response has left the DPU.
	d.pool.Put(f.in)
	d.pool.Put(req.out)
	d.pool.Put(req.rh)
	ws.End(wp)
}

// putResponse lays a response out in dst the way the host decodes it:
// header at 0, zero fill up to rhCap, data from rhCap, cut off at len(dst).
func putResponse(dst []byte, rhCap int, resp Response) {
	k := copy(dst, resp.Header)
	if gapEnd := min(rhCap, len(dst)); k < gapEnd {
		clear(dst[k:gapEnd])
	}
	if len(dst) > rhCap {
		copy(dst[rhCap:], resp.Data)
	}
}

// complete posts the CQE (④) and interrupts the host. The interrupt
// handler decodes the response out of the slot buffer and recycles the
// slot and CID immediately — before anyone calls Wait — so a submitter
// parked on slot exhaustion with a deep in-flight window always drains.
//
// gen is the queue generation the command was fetched under: a completion
// that straddles a controller reset is discarded (its command was already
// failed with StatusReset and its ring position no longer exists). The
// host-side IRQ asks the same liveness rule as the TGT — an unknown CID or
// another attempt's token is a counted drop, never a panic: with deadlines
// and CID recycling, late completions for aborted attempts are an expected
// part of the protocol.
func (d *Driver) complete(p *sim.Proc, qs *queueState, gen int, sqe nvme.SQE, resp Response) {
	if qs.gen != gen {
		d.StaleCompletions++
		return
	}
	cqe := nvme.CQE{
		Result: resp.Result,
		Token:  sqe.Token,
		SQHead: uint16(qs.qp.SQHead),
		SQID:   uint16(qs.qp.ID),
		CID:    sqe.CID,
		Phase:  qs.qp.CQPhaseDev,
		Status: resp.Status,
	}
	if kind, _, ok := d.faults.At(fault.SiteComplete); ok {
		switch kind {
		case fault.KindDropCompletion:
			// The CQE is lost on the wire: the host's deadline fires, the
			// command is retried, and the retry hits the executed-response
			// cache (the handler DID run).
			d.DroppedCompletions++
			return
		case fault.KindCorruptCQE:
			// Mangle the CID to one that can never be allocated (>= Depth)
			// and scramble the token: the host must reject it cleanly.
			cqe.CID |= 0x8000
			cqe.Token ^= 0xDEAD6077
		}
	}
	cqIdx := qs.qp.CQTail
	qs.qp.CQTail = qs.qp.CQ.Next(qs.qp.CQTail)
	if qs.qp.CQTail == 0 {
		qs.qp.CQPhaseDev = !qs.qp.CQPhaseDev
	}
	// An inline read folds the whole response into the completion: one
	// contiguous [CQE|header|data] DMA into the enlarged-CQE window slot at
	// this CQ position, replacing the separate data-out and CQE transfers.
	// hasWin tells the IRQ handler to decode response bytes from the window.
	hasWin := sqe.PSDTRead == nvme.PSDTInline && resp.Status == nvme.StatusOK &&
		(len(resp.Header) > 0 || len(resp.Data) > 0)
	var winAddr mem.Addr
	if hasWin {
		winAddr = qs.cqWin + mem.Addr(cqIdx*qs.cqStride)
		n := len(resp.Data)
		if max := qs.cqStride - nvme.CQESize - d.cfg.RHCap; n > max {
			n = max
		}
		out := d.m.PCIe.DMAWriteView(p, d.m.HostMem, winAddr, nvme.CQESize+d.cfg.RHCap+n, "cqe-inline")
		cqe.Marshal(out)
		putResponse(out[nvme.CQESize:], d.cfg.RHCap, resp)
	} else {
		var cqeBytes [nvme.CQESize]byte
		cqe.Marshal(cqeBytes[:])
		cqAddr := qs.qp.CQ.EntryAddr(cqIdx)
		d.m.PCIe.DMAWrite(p, d.m.HostMem, cqAddr, cqeBytes[:], "cqe")
	}

	r := popLast(&d.freeIRQ)
	if r == nil {
		r = &irq{d: d}
		r.fire = r.interrupt
	}
	r.qs, r.gen, r.cqe, r.hasWin, r.winAddr = qs, gen, cqe, hasWin, winAddr
	d.m.Eng.After(d.m.Cfg.Costs.HostIRQDelay, r.fire)
}

// irq is one posted completion on its way to the host's interrupt handler:
// what complete knew when it wrote the CQE. Records come from the driver's
// free list and return to it as the interrupt fires; fire is the method
// value built once per record, so scheduling an interrupt allocates nothing.
type irq struct {
	d       *Driver
	qs      *queueState
	gen     int
	cqe     nvme.CQE
	hasWin  bool     // the response sits in the enlarged-CQE window
	winAddr mem.Addr // that window slot
	fire    func()
}

// interrupt is the host's completion handler: it decodes the response out
// of the slot buffer (or the CQE window) into the command and retires it.
func (r *irq) interrupt() {
	d, qs, gen, cqe, hasWin, winAddr := r.d, r.qs, r.gen, r.cqe, r.hasWin, r.winAddr
	r.qs = nil
	d.freeIRQ = append(d.freeIRQ, r)
	pd := qs.live(gen, cqe.CID, cqe.Token)
	if pd == nil {
		// Unknown CID, recycled CID, or an attempt already aborted:
		// drop the completion. The slot is NOT recycled here — the
		// abort path owns it.
		d.UnknownCompletions++
		return
	}
	d.consecTimeouts = 0
	comp := Completion{Status: cqe.Status, Result: cqe.Result}
	if sub := &pd.sub; (sub.RHLen > 0 || sub.ReadLen > 0) && cqe.Status == nvme.StatusOK {
		_, rbuf := qs.slotBufs(pd.slot)
		hdrAddr, dataAddr := rbuf, rbuf+mem.Addr(d.cfg.RHCap)
		if hasWin {
			hdrAddr = winAddr + nvme.CQESize
			dataAddr = winAddr + nvme.CQESize + mem.Addr(d.cfg.RHCap)
		}
		// The completion outlives the slot (recycled below), so the host
		// driver copies the response out of it: into the caller's buffers
		// when it gave some, else into fresh ones.
		if sub.RHLen > 0 {
			comp.Header = copyOut(sub.HeaderInto, d.m.HostMem.Slice(hdrAddr, sub.RHLen))
		}
		if n := min(int(cqe.Result), sub.ReadLen); n > 0 {
			comp.Data = copyOut(sub.ReadInto, d.m.HostMem.Slice(dataAddr, n))
		}
	}
	d.retire(qs, pd, comp, false)
	qs.slotCond.Signal()
	pd.cond.Signal()
}

// copyOut copies src into dst when it fits, else into a fresh slice, and
// returns the copy.
func copyOut(dst, src []byte) []byte {
	if len(dst) >= len(src) {
		return dst[:copy(dst, src)]
	}
	return append([]byte(nil), src...)
}
