// NVME-INI, the host side of nvme-fs: submission with doorbell coalescing,
// the pending table every attempt lives in until it is retired, and Wait,
// the retry engine.

package nvmefs

import (
	"fmt"

	"dpc/internal/mem"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Pending is the host-side handle of an asynchronously submitted command,
// and the command's own record: its state from SQE enqueue to host reap
// lives here, named in the queue's pending table by its CID. The completion
// interrupt decodes the response out of the slot buffer and frees the slot
// and CID itself, so a Pending never pins queue resources and a blocked
// submitter with a full in-flight window makes progress without anyone
// calling Wait first; Wait only parks until the completion lands and charges
// the host-side reap cost.
//
// A Pending is valid until its Wait returns. The record then goes back to
// the driver's free list for a later command, so a caller must not touch it
// again. A retry re-arms the same record for its next attempt.
type Pending struct {
	d     *Driver
	cond  sim.Cond // initialised in place; never copy a Pending
	done  bool     // retired: the attempt has left the pending table
	comp  Completion
	qid   int // Wait resubmits on it when a retryable status leaves attempts; -1 once free
	cid   uint16
	slot  int
	token uint32     // the attempt's token (attemptBits); completions must echo it
	sub   Submission // what the IRQ decodes for, and what a retry resubmits
	// span carries the submitter's span across the host→TGT hop so the
	// DPU-side spans nest under the client operation that issued the CID.
	span obs.Span
	// hdr holds the request header, copied at submission: sub.Header points
	// into it, so a retry resubmits it and the caller's buffer is free.
	hdr [64]byte
}

// A token names one attempt of one operation: the operation in the high
// bits, the attempt in the low attemptBits (maxRetries+1 attempts fit). The
// TGT's liveness check compares the whole token, so a straggling attempt can
// never pass as the retry that reused its CID; the executed-response cache
// compares only the operation, so a retry still finds what its first attempt
// executed.
const (
	attemptBits = 4
	attemptMask = 1<<attemptBits - 1
)

// newToken hands out the first attempt's token of a fresh operation; never 0.
func (d *Driver) newToken() uint32 {
	d.nextToken += 1 << attemptBits
	if d.nextToken == 0 {
		d.nextToken = 1 << attemptBits
	}
	return d.nextToken
}

// Submit runs one command on queue qid (callers typically pin a thread to a
// queue): it enqueues it, rings the doorbell and blocks until completion.
func (d *Driver) Submit(p *sim.Proc, qid int, sub Submission) Completion {
	pend := d.Enqueue(p, qid, sub)
	d.Ring(p, qid)
	return pend.Wait(p)
}

// SubmitBatch enqueues a burst of commands on queue qid and rings the
// doorbell ONCE for the whole burst: one MMIO instead of len(subs). The TGT
// loop re-reads the doorbell after each SQE, so a burst published once
// drains completely and in SQ order. If the burst exhausts buffer slots or
// CIDs mid-way, the already-enqueued prefix is published before parking, so
// a burst larger than the queue's resources completes instead of
// deadlocking. The caller reaps each command with Pending.Wait, in any order.
func (d *Driver) SubmitBatch(p *sim.Proc, qid int, subs []Submission) []*Pending {
	pends := make([]*Pending, len(subs))
	for i := range subs {
		pends[i] = d.Enqueue(p, qid, subs[i])
	}
	if len(pends) > 0 {
		d.Ring(p, qid)
	}
	return pends
}

// Enqueue stages one command on queue qid without ringing the doorbell: a
// burst of Enqueues published by one Ring is SubmitBatch without its slice.
// The request header is copied into the command before Enqueue first parks,
// so the caller may rewrite its buffer as soon as Enqueue returns; Payload
// and ReadInto/HeaderInto must stay put until Wait returns.
func (d *Driver) Enqueue(p *sim.Proc, qid int, sub Submission) *Pending {
	pend := d.newPending(qid, sub)
	d.enqueue(p, pend, d.newToken())
	return pend
}

// Ring publishes every command enqueued on queue qid since its last
// doorbell with one MMIO.
func (d *Driver) Ring(p *sim.Proc, qid int) { d.ring(p, d.queues[qid%len(d.queues)]) }

// newPending takes a record off the free list, or makes one, for a fresh
// operation on queue qid.
func (d *Driver) newPending(qid int, sub Submission) *Pending {
	if len(sub.Payload) > d.cfg.MaxIO || sub.ReadLen > d.cfg.MaxIO {
		panic(fmt.Sprintf("nvmefs: payload %d / readlen %d exceed MaxIO %d",
			len(sub.Payload), sub.ReadLen, d.cfg.MaxIO))
	}
	if len(sub.Header) > 64 || sub.RHLen > d.cfg.RHCap {
		panic(fmt.Sprintf("nvmefs: header %d / rhlen %d exceed caps", len(sub.Header), sub.RHLen))
	}
	pend := popLast(&d.freePend)
	if pend == nil {
		pend = &Pending{d: d}
		pend.cond.Init(d.m.Eng, "nvme-cmd")
	}
	pend.qid = qid
	pend.sub = sub
	pend.sub.Header = pend.hdr[:copy(pend.hdr[:], sub.Header)]
	return pend
}

// popLast takes the last record off the free list *s; nil when it is empty.
func popLast[T any](s *[]*T) *T {
	n := len(*s) - 1
	if n < 0 {
		return nil
	}
	r := (*s)[n]
	(*s)[n] = nil
	*s = (*s)[:n]
	return r
}

// enqueue reserves resources, stages buffers and writes the SQE for one
// attempt of pend's command, carrying token, without ringing the doorbell.
func (d *Driver) enqueue(p *sim.Proc, pend *Pending, token uint32) {
	costs := d.m.Cfg.Costs
	qs := d.queues[pend.qid%len(d.queues)]
	sub := &pend.sub

	// Syscall + fs-adapter conversion. No FUSE layer, no payload copy: the
	// PRP points straight at the request buffer.
	s := d.o.Begin(p, "nvmefs.submit")
	d.m.HostExec(p, costs.HostSyscall+costs.HostSubmit)

	// Acquire a buffer slot and a CID, then an SQ slot. Before parking,
	// publish any batched SQEs: the TGT can only drain (and thereby free)
	// work it has been told about, so an unrung burst must not sleep on the
	// resources its own prefix is holding.
	if len(qs.freeSlots) == 0 || len(qs.freeCID) == 0 {
		waitFrom := p.Now()
		for len(qs.freeSlots) == 0 || len(qs.freeCID) == 0 {
			d.ring(p, qs)
			qs.slotCond.Wait(p)
		}
		d.o.Attr(p, obs.CompWait, "nvmefs.slot", waitFrom, p.Now())
	}
	slot := qs.freeSlots[len(qs.freeSlots)-1]
	qs.freeSlots = qs.freeSlots[:len(qs.freeSlots)-1]
	cid := qs.freeCID[len(qs.freeCID)-1]
	qs.freeCID = qs.freeCID[:len(qs.freeCID)-1]

	wbuf, rbuf := qs.slotBufs(slot)

	writeLen := 0
	if len(sub.Header) > 0 || len(sub.Payload) > 0 {
		writeLen = 64 + len(sub.Payload)
	}
	readLen := 0
	if sub.RHLen > 0 || sub.ReadLen > 0 {
		readLen = d.cfg.RHCap + sub.ReadLen
	}

	// Inline decisions. Writes inline only when there is a payload (a
	// header-only command already costs a single 64-byte fetch, which beats
	// a PIO burst) at or under the cutover, which is 0 with the path off.
	// Reads inline whenever the response fits the enlarged-CQE window:
	// folding data-out into the CQE DMA saves one DMA setup unconditionally.
	inlineW := writeLen > 64 && len(sub.Payload) <= d.cutover
	inlineR := d.cfg.InlineMax > 0 && readLen > 0 && sub.ReadLen <= d.cfg.InlineMax

	// Place the file-semantic header and payload in the write buffer. An
	// inline write stages them into the DPU window instead, once its SQ ring
	// position is known below.
	if !inlineW {
		d.m.HostMem.Write(wbuf, sub.Header)
		if len(sub.Payload) > 0 {
			d.m.HostMem.Write(wbuf+64, sub.Payload)
		}
	}

	sqe := nvme.SQE{
		Opcode:   nvme.OpcodeBidir,
		Dispatch: sub.Dispatch,
		CID:      cid,
		FileOp:   sub.FileOp,
		WriteLen: uint32(writeLen),
		ReadLen:  uint32(readLen),
		DW12:     sub.DW12,
		WHLen:    uint16(len(sub.Header)),
		RHLen:    uint16(sub.RHLen),
		Token:    token,
	}
	switch {
	case inlineW:
		sqe.PSDTWrite = nvme.PSDTInline
	case writeLen > 0:
		sqe.PRPWrite = [2]uint64{uint64(wbuf), uint64(wbuf) + 4096}
	}
	switch {
	case inlineR:
		sqe.PSDTRead = nvme.PSDTInline
	case readLen > 0:
		sqe.PRPRead = [2]uint64{uint64(rbuf), uint64(rbuf) + 4096}
	}

	if qs.qp.SQFull() {
		waitFrom := p.Now()
		for qs.qp.SQFull() {
			d.ring(p, qs)
			qs.sqCond.Wait(p)
		}
		d.o.Attr(p, obs.CompWait, "nvmefs.sq", waitFrom, p.Now())
	}
	if inlineW {
		// Stage [header|payload] into the inline window slot matching this
		// SQE's ring position — one write-combined PIO burst. The staging
		// buffer comes from the pool; PIOWrite only reads it, so it recycles
		// immediately.
		stage := d.pool.Get(writeLen)
		copy(stage, sub.Header)
		copy(stage[64:], sub.Payload)
		winAddr := qs.inWin + mem.Addr(qs.qp.SQTail*qs.inStride)
		d.m.PCIe.PIOWrite(p, d.m.DPUMem, winAddr, stage, "inline-sqe")
		d.pool.Put(stage)
		d.InlineWrites++
		d.InlineBytes += int64(len(sub.Payload))
	}
	if inlineR {
		d.InlineReads++
	}
	// Write the SQE into the SQ ring (host-local memory write).
	sqeAddr := qs.qp.SQ.EntryAddr(qs.qp.SQTail)
	sqe.Marshal(d.m.HostMem.Slice(sqeAddr, nvme.SQESize))
	qs.qp.SQTail = qs.qp.SQ.Next(qs.qp.SQTail)
	qs.unrung++

	pend.done, pend.comp = false, Completion{}
	pend.cid, pend.slot, pend.token, pend.span = cid, slot, token, s
	qs.pending[cid] = pend
	qs.npending++
	qs.depthGauge.Set(float64(qs.npending))

	// Arm the per-command deadline. Only on fault runs: a fault-free run
	// schedules no timer events at all, so its event interleaving — and
	// with it every metric and trace snapshot — is unchanged. The timer
	// names the attempt by value: by the time it fires the record may be
	// serving another command.
	if d.faults != nil {
		gen := qs.gen
		d.m.Eng.After(cmdTimeout, func() { d.onDeadline(qs, gen, cid, token) })
	}

	d.inflight++
	d.oInflightPeak.SetMax(float64(d.inflight))
	d.oInflight.Set(float64(d.inflight))
	s.End(p)
}

// ring publishes the SQ tail with one MMIO doorbell and kicks the queue's
// TGT thread. Every SQE enqueued since the previous ring rides the same
// doorbell; the coalesced count is the MMIOs a serial submitter would have
// paid on top.
func (d *Driver) ring(p *sim.Proc, qs *queueState) {
	if qs.unrung == 0 {
		return
	}
	d.oDoorbells.Inc()
	d.oCoalesced.Add(int64(qs.unrung - 1))
	qs.unrung = 0
	d.m.PCIe.MMIOWrite32(p, d.m.DPUMem, qs.doorbell, uint32(qs.qp.SQTail), "sq-doorbell")
	qs.tgt.kick()
}

// Wait parks until the command completes and returns its decoded
// completion. The response bytes were already pulled out of the slot buffer
// by the completion interrupt; Wait charges the host-side reap cost. Once
// Wait returns, pend belongs to the driver again.
//
// Wait is also the retry engine: a retryable completion status (timeout,
// transient, corrupt, reset) is resubmitted — the next attempt's token, a
// fresh CID/slot — after exponential backoff, up to maxRetries times. A run
// of resetThreshold consecutive timeouts triggers a controller reset first,
// on the theory that the controller (not the command) is stuck.
func (pend *Pending) Wait(p *sim.Proc) Completion {
	if pend.qid < 0 {
		panic("nvmefs: Wait on a Pending whose Wait already returned")
	}
	d := pend.d
	s := d.o.Begin(p, "nvmefs.wait")
	for {
		if !pend.done {
			waitFrom := p.Now()
			for !pend.done {
				pend.cond.Wait(p)
			}
			d.o.Attr(p, obs.CompWait, "nvmefs.inflight", waitFrom, p.Now())
		}
		comp := pend.comp
		retries := int(pend.token & attemptMask)
		if !nvme.Retryable(comp.Status) || retries >= maxRetries {
			d.m.HostExec(p, d.m.Cfg.Costs.HostComplete)
			d.Completed++
			s.End(p)
			pend.qid, pend.sub, pend.comp, pend.span = -1, Submission{}, Completion{}, obs.Span{}
			d.freePend = append(d.freePend, pend)
			return comp
		}
		d.Retries++
		// A retryable completion is a fault-path event: pin the wait span so
		// the telemetry flight recorder keeps this op's causal tree.
		s.Pin()
		if comp.Status == nvme.StatusTimeout && d.consecTimeouts >= resetThreshold {
			d.reset(p)
		}
		backoff := retryBase << retries
		if backoff > retryMax || backoff <= 0 {
			backoff = retryMax
		}
		// The backoff sleep is recovery time, not work: attribute it as
		// wait so fault-injected runs show where retry latency went.
		d.o.Sleep(p, backoff, obs.CompWait, "nvmefs.backoff")
		d.enqueue(p, pend, pend.token+1)
		d.Ring(p, pend.qid)
	}
}

// live returns the command that the attempt (cid, token) still is, or nil
// once that attempt has been retired. It is the one liveness rule of the
// driver: every retire clears the entry in the same step, and the token
// names the attempt, so a straggler cannot pass as the retry that reused its
// CID or as the next command its record serves. gen is the queue generation
// the caller's work started under; a reset since then answers nil as well.
func (qs *queueState) live(gen int, cid uint16, token uint32) *Pending {
	if qs.gen != gen || int(cid) >= len(qs.pending) {
		return nil
	}
	if pd := qs.pending[cid]; pd != nil && pd.token == token {
		return pd
	}
	return nil
}

// spanOf returns the span of the client operation that holds cid, so the
// TGT's spans nest under it; the zero Span when the CID is free.
func (qs *queueState) spanOf(cid uint16) obs.Span {
	if int(cid) < len(qs.pending) && qs.pending[cid] != nil {
		return qs.pending[cid].span
	}
	return obs.Span{}
}

// retire takes pd out of the pending table with completion comp. It is the
// one path by which a command attempt ends: its CQE landed, its deadline
// expired, or a reset failed it. The CID is free at once (the token, not the
// CID, names an attempt). A completed command frees its slot at once; an
// aborted one quarantines it for slotGrace, because a worker that passed its
// liveness check just before the abort may still have a data-out DMA in
// flight aimed at it. Waking is the caller's: one slot waiter first, then
// the owner. A reset wakes no slot waiter per command; it broadcasts once it
// has re-armed the rings.
func (d *Driver) retire(qs *queueState, pd *Pending, comp Completion, quarantine bool) {
	pd.comp = comp
	pd.done = true
	qs.pending[pd.cid] = nil
	qs.npending--
	qs.depthGauge.Set(float64(qs.npending))
	qs.freeCID = append(qs.freeCID, pd.cid)
	if quarantine {
		slot := pd.slot
		d.m.Eng.After(slotGrace, func() {
			qs.freeSlots = append(qs.freeSlots, slot)
			qs.slotCond.Signal()
		})
	} else {
		qs.freeSlots = append(qs.freeSlots, pd.slot)
	}
	d.inflight--
	d.oInflight.Set(float64(d.inflight))
}
