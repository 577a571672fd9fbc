// NVME-TGT, the DPU side of nvme-fs (Figure 4's four DMAs). The polling
// thread of each queue and each command's response tail run as engine
// events, each step booking its clocked resource and scheduling the next at
// the end; only the handler, which may block, runs on a process.

package nvmefs

import (
	"fmt"

	"dpc/internal/fault"
	"dpc/internal/mem"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// fetched carries one consumed SQE from queue drain to dispatch. In
// multi-tenant mode it is the scheduler's unit of work: its buffers are
// pulled only at dispatch, so a shed or dead command spends no PCIe time.
type fetched struct {
	qs   *queueState
	sqe  nvme.SQE
	in   []byte // pooled write buffer [header(64)|payload]: inline-window copy-out or the pulls' DMAs
	gen  int    // queue generation the SQE was fetched under
	ts   obs.Span
	enq  sim.Time // fetch instant; scheduler wait = dispatch instant − enq
	cost int64    // dispatch cost estimate: command overhead + bytes both ways
}

// tgt is one queue's NVME-TGT thread, run as events: its state between steps
// and its steps, bound once as method values so that scheduling one
// allocates nothing. One SQE is in flight at a time, which keeps ring order.
type tgt struct {
	d      *Driver
	qs     *queueState
	thread string // "nvme-tgt-<qid>", the trace thread of its spans
	// idle: drained, waiting for a kick; kicked: one kick came while busy,
	// as a one-slot mailbox would remember it.
	idle, kicked       bool
	f                  fetched
	sqe                [nvme.SQESize]byte // a private copy: KindCorruptSQE flips a byte of it
	corrupted          bool
	dma                pcie.DMA
	issued, start, end sim.Time // the parse's booking on the DPU cores
	plan               [2]pull
	todo               []pull // what is left of plan

	pollFn, drainFn, fetchSQEFn, sqeInFn, parseFn, parsedFn, pulledFn, finishFn func()
}

func newTGT(d *Driver, qs *queueState) *tgt {
	t := &tgt{d: d, qs: qs, thread: fmt.Sprintf("nvme-tgt-%d", qs.qp.ID), idle: true}
	t.pollFn, t.drainFn, t.fetchSQEFn, t.sqeInFn = t.poll, t.drain, t.fetchSQE, t.sqeIn
	t.parseFn, t.parsedFn, t.pulledFn, t.finishFn = t.parse, t.parsed, t.pulled, t.finish
	return t
}

// kick is a doorbell's notice: an idle TGT wakes at this instant, behind the
// events already due, and a busy one drains again when it is done.
func (t *tgt) kick() {
	if t.kicked = !t.idle; t.idle {
		t.idle = false
		t.d.m.Eng.Schedule(t.d.m.Eng.Now(), t.pollFn)
	}
}

// poll is the delay until the polling thread sees the new tail.
func (t *tgt) poll() { t.d.m.Eng.At(t.d.m.Eng.Now()+sim.Time(t.d.m.Cfg.Costs.TGTPollDelay), t.drainFn) }

// drain starts on the SQE at the ring's head, if any. The doorbell register
// is device-local, so reading it is free; it is re-read after every SQE,
// because the host may have advanced it. A controller freeze (possibly fired
// on another queue — it is controller-wide) holds the fetch until the thaw.
func (t *tgt) drain() {
	switch {
	case t.qs.qp.SQHead != int(t.d.m.DPUMem.Uint32(t.qs.doorbell)):
		t.f = fetched{qs: t.qs, gen: t.qs.gen}
		t.d.m.Eng.At(t.d.faults.FrozenUntil(), t.fetchSQEFn)
	case t.kicked:
		t.kicked = false
		t.poll()
	default:
		t.idle = true
	}
}

// fetchSQE retrieves the SQE (①). The TGT span opens first (the fetch is
// TGT work) and is linked under the submitter's once the CID is decoded.
func (t *tgt) fetchSQE() {
	d, qs := t.d, t.qs
	t.f.ts = d.o.Open(t.thread, obs.Span{}, "nvmefs.tgt", d.m.Eng.Now())
	t.dma = d.m.PCIe.Book(pcie.HostToDev, qs.qp.SQ.EntryAddr(qs.qp.SQHead), nvme.SQESize, "sqe")
	d.m.Eng.At(t.dma.End, t.sqeInFn)
}

// sqeIn consumes the fetched SQE.
func (t *tgt) sqeIn() {
	d, qs, f := t.d, t.qs, &t.f
	d.m.PCIe.Done(t.dma, f.ts)
	copy(t.sqe[:], d.m.HostMem.Slice(t.dma.Addr, nvme.SQESize))
	if qs.gen != f.gen {
		// A reset re-armed the ring during the fetch: drop the old
		// generation's bytes without touching the re-zeroed head index.
		t.finish()
		return
	}
	// An inline write's bytes live in the window slot of this ring position:
	// copy them out BEFORE SQHead advances, since a parked submitter may
	// then reuse the position and PIO fresh bytes over them.
	if d.cfg.InlineMax > 0 {
		if peek, err := nvme.UnmarshalSQE(t.sqe[:]); err == nil &&
			peek.PSDTWrite == nvme.PSDTInline && peek.WriteLen > 0 {
			wl := min(int(peek.WriteLen), qs.inStride)
			f.in = d.pool.Get(wl) // left to the GC on the drop paths below
			copy(f.in, d.m.DPUMem.Slice(qs.inWin+mem.Addr(qs.qp.SQHead*qs.inStride), wl))
		}
	}
	qs.qp.SQHead = qs.qp.SQ.Next(qs.qp.SQHead)
	qs.sqCond.Signal() // a submitter blocked on SQFull may enqueue

	t.corrupted = false
	if kind, delay, ok := d.faults.At(fault.SiteTGT); ok {
		switch kind {
		case fault.KindCorruptSQE:
			// Flip the opcode byte: the entry parses but fails validation,
			// so the host gets a retryable StatusCorrupt (the CID and token
			// are intact; KindCorruptCQE covers an unknown CID).
			t.sqe[0] ^= 0xFF
			t.corrupted = true
		case fault.KindWorkerCrash:
			// Consumed, never executed: the host's deadline retries it, and
			// with no dedup entry the retry executes fresh.
			d.WorkerCrashes++
			t.finish()
			return
		case fault.KindFreeze:
			// The stall starts here; other queues see FrozenUntil.
			d.m.Eng.At(d.m.Eng.Now()+sim.Time(delay), t.parseFn)
			return
		}
	}
	t.parse()
}

// parse decodes the SQE and books the parse on a DPU core.
func (t *tgt) parse() {
	d, f := t.d, &t.f
	sqe, err := nvme.UnmarshalSQE(t.sqe[:])
	if err != nil {
		// No trustworthy CID to complete: drop it for the deadline to retry.
		d.CorruptSQEs++
		t.finish()
		return
	}
	f.ts.SetParent(f.qs.spanOf(sqe.CID))
	f.sqe = sqe
	t.issued = d.m.Eng.Now()
	t.start, t.end = d.m.DPUCPU.Book(d.m.DPUCPU.CyclesToDuration(d.m.Cfg.Costs.DPUCmdParse))
	d.m.Eng.At(t.end, t.parsedFn)
}

// parsed validates the parsed command and passes it on: to the buffer
// pulls, or in multi-tenant mode to the scheduler.
func (t *tgt) parsed() {
	d, f := t.d, &t.f
	d.m.DPUCPU.Done(f.ts, t.issued, t.start, t.end)
	if err := f.sqe.Validate(); err != nil {
		status := nvme.StatusInvalid
		if t.corrupted {
			// In-flight corruption: retryable, so the original is resent.
			d.CorruptSQEs++
			status = nvme.StatusCorrupt
		}
		t.fail(status)
		return
	}
	// The command must still be live before its buffers are read: after a
	// freeze that outlasted its deadline, the abort path may have recycled
	// the slot the PRPs point at, and executing with another command's
	// bytes would corrupt the retry. Dropping is safe: it is being retried.
	if f.qs.live(f.gen, f.sqe.CID, f.sqe.Token) == nil {
		t.finish()
		return
	}
	// The scheduler's cost estimate: command overhead (SQE + PRP + CQE) plus
	// the declared lengths both ways, known before any buffer DMA.
	f.enq, f.cost = d.m.Eng.Now(), 512+int64(f.sqe.WriteLen)+int64(f.sqe.ReadLen)
	var ok bool
	switch {
	case d.sched == nil:
		if t.todo, ok = d.plan(f, &t.plan); ok {
			t.pullNext()
		} else {
			t.fail(nvme.StatusCorrupt)
		}
	case d.sched.admit(*f):
		t.finish()
	default:
		t.fail(nvme.StatusOverload)
	}
}

// pullNext issues the next buffer pull, or hands the command to a worker.
func (t *tgt) pullNext() {
	if len(t.todo) == 0 {
		t.d.handOff(t.f)
		t.finish()
		return
	}
	pl := &t.todo[0]
	t.dma = t.d.m.PCIe.Book(pcie.HostToDev, pl.addr, len(pl.dst), pl.label)
	t.d.m.Eng.At(t.dma.End, t.pulledFn)
}

// pulled lands a pull's bytes in the command's buffer.
func (t *tgt) pulled() {
	pl := &t.todo[0]
	t.d.m.PCIe.Done(t.dma, t.f.ts)
	copy(pl.dst, t.d.m.HostMem.Slice(pl.addr, len(pl.dst)))
	t.todo = t.todo[1:]
	t.pullNext()
}

// fail posts an error CQE for the fetched command and drains on once it lands.
func (t *tgt) fail(status uint16) {
	j := t.d.newJob(t.f, t.finishFn)
	j.ws = t.f.ts // attributed the CQE's DMA; done closes it, finish finds it closed
	j.complete(Response{Status: status})
}

// finish closes the fetch's span and drains on.
func (t *tgt) finish() {
	t.f.ts.EndAt(t.d.m.Eng.Now())
	t.drain()
}

// pull is one DMA of steps ② and ③, filling dst from host memory at addr.
type pull struct {
	dst   []byte
	addr  mem.Addr
	label string
}

// plan lays out in buf steps ② (the PRP fetch, which brings the 64-byte
// request header) and ③ (the payload) of f; an inline write brought both
// through the window. ok=false: the window cannot satisfy a corrupted inline
// SQE, which must fail retryably. The bytes land in a pooled buffer, f.in,
// laid out like a window slot, that the job recycles.
func (d *Driver) plan(f *fetched, buf *[2]pull) (pulls []pull, ok bool) {
	sqe := f.sqe
	switch {
	case sqe.PSDTWrite == nvme.PSDTInline && sqe.WriteLen > 0:
		return nil, f.in != nil && len(f.in) >= int(sqe.WHLen)
	case sqe.WriteLen > 0:
		f.in = d.pool.Get(max(int(sqe.WriteLen), 64))
		prp := mem.Addr(sqe.PRPWrite[0])
		buf[0], buf[1] = pull{f.in[:64], prp, "prp"}, pull{f.in[64:], prp + 64, "data-in"}
		if len(f.in) == 64 {
			return buf[:1], true
		}
		return buf[:2], true
	}
	return nil, true
}

// job is one command from its hand-off to its completion: the nvme-worker's
// body and the response tail's state and steps, bound once per record, so
// that starting a worker or scheduling a step allocates nothing. Records
// come from the driver's free list and return when the completion lands.
type job struct {
	d       *Driver
	f       fetched
	out, rh []byte   // the handler's pooled response buffers (ReadBuf, HeaderBuf)
	ws      obs.Span // the tail's span, closed when the completion lands
	resp    Response
	cqe     nvme.CQE
	hasWin  bool // the response rides in the enlarged-CQE window
	dma     pcie.DMA
	// then runs when the completion has landed: the TGT's drain after an
	// error CQE, a dispatch worker's wake; nil for an nvme-worker.
	then                func()
	run                 func(p *sim.Proc)
	dataOutFn, landedFn func()
}

// newJob takes a record off the free list, or makes one, for f.
func (d *Driver) newJob(f fetched, then func()) *job {
	j := popLast(&d.freeJobs)
	if j == nil {
		j = &job{d: d}
		j.run, j.dataOutFn, j.landedFn = j.work, j.dataOut, j.landed
	}
	j.f, j.then = f, then
	return j
}

// handOff starts an nvme-worker for f at the current instant.
func (d *Driver) handOff(f fetched) {
	d.m.Eng.Go("nvme-worker", d.newJob(f, nil).run)
}

// work is an nvme-worker's body, which ends with the handler.
func (j *job) work(p *sim.Proc) { j.d.execute(p, j) }

// execute runs a dispatched command's handler on wp (after the dedup
// lookup) and starts its response tail, which runs as events. wp is the
// command's nvme-worker, or in multi-tenant mode its dispatch worker.
func (d *Driver) execute(wp *sim.Proc, j *job) {
	qs, sqe := j.f.qs, j.f.sqe
	req := Request{QID: qs.qp.ID, Tenant: qs.tenant, SQE: sqe}
	if n := int(sqe.ReadLen) - d.cfg.RHCap; n > 0 {
		// Eagerly: filling it on demand needs a pointer in the Request,
		// which then escapes to the heap.
		j.out = d.pool.Get(n)
	}
	j.rh = d.pool.Get(int(sqe.RHLen))
	req.out, req.rh = j.out, j.rh
	if in := j.f.in; in != nil {
		req.Header = in[:sqe.WHLen]
		if len(in) > 64 {
			req.Data = in[64:]
		}
	}
	j.ws = d.o.BeginChild(wp, j.f.ts, "nvmefs.worker")
	var resp Response
	if cached, ok := qs.execGet(sqe.Token); ok {
		// A retry of an executed command whose completion was lost:
		// replay the recorded response instead of running it twice.
		d.DedupHits++
		resp = cached
	} else {
		resp = d.handler(wp, req)
		// Record it for retry dedup, unless retryable: such an op did not
		// take effect, so a retry must re-execute it.
		if d.faults != nil && !nvme.Retryable(resp.Status) {
			qs.execPut(d.cfg.Depth, sqe.Token, resp)
		}
	}
	j.ws.Leave(wp) // the rest runs on no process
	// Write back the response header + data in one DMA, only while the
	// attempt is live: else its slot may belong to another command. (The
	// abort path quarantines slots for slotGrace, which outlasts any
	// transfer that passed this check.)
	if sqe.ReadLen > 0 && resp.Status == nvme.StatusOK && (len(resp.Header) > 0 || len(resp.Data) > 0) {
		if len(resp.Header) > int(sqe.RHLen) {
			// A handler bug: fail the command cleanly.
			d.HeaderOverflows++
			resp = Response{Status: nvme.StatusIOError}
		} else if sqe.PSDTRead == nvme.PSDTInline {
			// Inline read: complete folds the response into the CQE.
			if len(resp.Data) > int(sqe.ReadLen)-d.cfg.RHCap {
				resp.Data = resp.Data[:int(sqe.ReadLen)-d.cfg.RHCap]
			}
			d.InlineBytes += int64(len(resp.Data))
			resp.Result = uint32(len(resp.Data))
		} else if qs.live(j.f.gen, sqe.CID, sqe.Token) != nil {
			// [header | zeros up to RHCap | data], cut at ReadLen, lands in
			// the host read buffer when the DMA ends.
			j.resp = resp
			n := min(d.cfg.RHCap+len(resp.Data), int(sqe.ReadLen))
			j.dma = d.m.PCIe.Book(pcie.DevToHost, mem.Addr(sqe.PRPRead[0]), n, "data-out")
			d.m.Eng.At(j.dma.End, j.dataOutFn)
			return
		}
	}
	j.complete(resp)
}

// dataOut ends the data-out DMA: the response lands in the host read buffer.
func (j *job) dataOut() {
	d := j.d
	d.m.PCIe.Done(j.dma, j.ws)
	putResponse(d.m.HostMem.Slice(j.dma.Addr, j.dma.Bytes), d.cfg.RHCap, j.resp)
	j.resp.Result = uint32(len(j.resp.Data))
	j.complete(j.resp)
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

// complete posts the CQE (④): it books its DMA, and landed writes it and
// interrupts the host, whose handler recycles the slot and CID at once, so
// a submitter parked on slot exhaustion drains. A completion straddling a
// controller reset is discarded (its command already failed with
// StatusReset); a late one of an aborted attempt is the IRQ's counted drop.
func (j *job) complete(resp Response) {
	d, qs, sqe := j.d, j.f.qs, j.f.sqe
	if qs.gen != j.f.gen {
		d.StaleCompletions++
		j.done()
		return
	}
	cqe := nvme.CQE{Result: resp.Result, Token: sqe.Token, SQHead: uint16(qs.qp.SQHead),
		SQID: uint16(qs.qp.ID), CID: sqe.CID, Phase: qs.qp.CQPhaseDev, Status: resp.Status}
	if kind, _, ok := d.faults.At(fault.SiteComplete); ok {
		switch kind {
		case fault.KindDropCompletion:
			// Lost on the wire: the deadline's retry hits the dedup cache.
			d.DroppedCompletions++
			j.done()
			return
		case fault.KindCorruptCQE:
			// A CID never allocated and a scrambled token: the host must
			// reject it cleanly.
			cqe.CID |= 0x8000
			cqe.Token ^= 0xDEAD6077
		}
	}
	cqIdx := qs.qp.CQTail
	qs.qp.CQTail = qs.qp.CQ.Next(qs.qp.CQTail)
	if qs.qp.CQTail == 0 {
		qs.qp.CQPhaseDev = !qs.qp.CQPhaseDev
	}
	// An inline read folds the response into one [CQE|header|data] DMA into
	// this CQ position's enlarged-CQE window slot, where the IRQ decodes it.
	j.resp, j.cqe = resp, cqe
	j.hasWin = sqe.PSDTRead == nvme.PSDTInline && resp.Status == nvme.StatusOK &&
		(len(resp.Header) > 0 || len(resp.Data) > 0)
	if j.hasWin {
		n := min(len(resp.Data), qs.cqStride-nvme.CQESize-d.cfg.RHCap)
		winAddr := qs.cqWin + mem.Addr(cqIdx*qs.cqStride)
		j.dma = d.m.PCIe.Book(pcie.DevToHost, winAddr, nvme.CQESize+d.cfg.RHCap+n, "cqe-inline")
	} else {
		j.dma = d.m.PCIe.Book(pcie.DevToHost, qs.qp.CQ.EntryAddr(cqIdx), nvme.CQESize, "cqe")
	}
	d.m.Eng.At(j.dma.End, j.landedFn)
}

// landed writes the CQE (and an inline read's response) and schedules the
// host interrupt.
func (j *job) landed() {
	d := j.d
	d.m.PCIe.Done(j.dma, j.ws)
	out := d.m.HostMem.Slice(j.dma.Addr, j.dma.Bytes)
	j.cqe.Marshal(out)
	if j.hasWin {
		putResponse(out[nvme.CQESize:], d.cfg.RHCap, j.resp)
	}
	r := popLast(&d.freeIRQ)
	if r == nil {
		r = &irq{d: d}
		r.fire = r.interrupt
	}
	r.qs, r.gen, r.cqe, r.hasWin, r.winAddr = j.f.qs, j.f.gen, j.cqe, j.hasWin, j.dma.Addr
	d.m.Eng.After(d.m.Cfg.Costs.HostIRQDelay, r.fire)
	j.done()
}

// done ends the command on the DPU: its buffers go back to the pool, the
// worker span closes, the record returns to the free list, and then the
// continuation runs.
func (j *job) done() {
	d, then := j.d, j.then
	d.pool.Put(j.f.in)
	d.pool.Put(j.out)
	d.pool.Put(j.rh)
	j.ws.EndAt(d.m.Eng.Now())
	j.f, j.out, j.rh, j.resp, j.then, j.ws = fetched{}, nil, nil, Response{}, nil, obs.Span{}
	d.freeJobs = append(d.freeJobs, j)
	if then != nil {
		then()
	}
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
