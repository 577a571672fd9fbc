// Failure handling on the host side of nvme-fs: per-command deadlines, the
// controller reset, and the TGT's executed-response cache that makes a
// retry of an executed command replay instead of re-execute (DESIGN.md §7).

package nvmefs

import (
	"time"

	"dpc/internal/fault"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// execCapPerDepth × Depth bounds the per-queue executed-response cache.
const execCapPerDepth = 4

// Failure handling. Per-command deadlines are armed only when a fault
// injector is attached (SetFaults), so fault-free runs schedule no extra
// events.
const (
	// cmdTimeout is the per-command deadline. It must exceed the worst-case
	// legitimate command (Flush/Barrier run full cache write-back inline).
	// A spurious timeout is correct but wasted work: the retry is a new
	// attempt, so the straggler can neither write its response nor complete
	// it, and the executed-response cache dedups the re-execution.
	cmdTimeout = 5 * time.Millisecond
	// maxRetries bounds Wait's resubmissions of a retryable status.
	maxRetries = 8
	// resetThreshold consecutive timeouts trigger a controller reset, which
	// costs resetDelay.
	resetThreshold = 8
	resetDelay     = 200 * time.Microsecond
	// retryBase and retryMax bound Wait's exponential retry backoff: the
	// first step and the cap.
	retryBase = 20 * time.Microsecond
	retryMax  = 640 * time.Microsecond
)

// slotGrace is how long an aborted command's buffer slot is quarantined
// before returning to the free list. A worker that passed its liveness
// check just before the abort may still have a data-out DMA in flight;
// the grace period outlasts any modeled transfer (including injected
// stalls) so the slot cannot be re-assigned while stale bytes can still
// land in it.
const slotGrace = 500 * time.Microsecond

// execPut records the response of token's operation, first writer wins.
func (qs *queueState) execPut(depth int, token uint32, resp Response) {
	op := token &^ attemptMask
	if qs.exec == nil {
		qs.exec = map[uint32]Response{}
	}
	if _, ok := qs.exec[op]; ok {
		return
	}
	if len(qs.execOrder) >= execCapPerDepth*depth {
		delete(qs.exec, qs.execOrder[0])
		qs.execOrder = qs.execOrder[1:]
	}
	// The cache outlives the command: own the bytes, which may alias the
	// request buffer (echo handlers) that is about to be recycled.
	resp.Header = append([]byte(nil), resp.Header...)
	resp.Data = append([]byte(nil), resp.Data...)
	qs.exec[op] = resp
	qs.execOrder = append(qs.execOrder, op)
}

// execGet returns the recorded response of token's operation, if any.
func (qs *queueState) execGet(token uint32) (Response, bool) {
	r, ok := qs.exec[token&^attemptMask]
	return r, ok
}

// SetFaults attaches a fault injector: the TGT and completion paths start
// consulting it, and every enqueue arms a per-command deadline event. The
// failure counters are published here — not at construction — so that
// fault-free runs export exactly the same metric key set as before.
func (d *Driver) SetFaults(in *fault.Injector) {
	d.faults = in
	if in == nil {
		return
	}
	d.o.Publish("nvmefs.driver.timeouts", &d.Timeouts)
	d.o.Publish("nvmefs.driver.retries", &d.Retries)
	d.o.Publish("nvmefs.driver.resets", &d.Resets)
	d.o.Publish("nvmefs.driver.dropped_completions", &d.DroppedCompletions)
	d.o.Publish("nvmefs.driver.unknown_completions", &d.UnknownCompletions)
	d.o.Publish("nvmefs.driver.dedup_hits", &d.DedupHits)
}

// onDeadline aborts the command attempt (cid, token) if its completion did
// not arrive in time: it is retired with StatusTimeout, its slot
// quarantined. The abort wakes both any submitter parked on queue resources
// and the Wait-ing owner, so a dropped completion can never deadlock the
// queue. gen is the queue generation the attempt was enqueued under.
func (d *Driver) onDeadline(qs *queueState, gen int, cid uint16, token uint32) {
	pd := qs.live(gen, cid, token)
	if pd == nil {
		return // completed, reset, or already aborted
	}
	d.Timeouts++
	d.consecTimeouts++
	d.retire(qs, pd, Completion{Status: nvme.StatusTimeout}, true)
	qs.slotCond.Signal()
	pd.notify()
}

// reset performs a controller reset: every queue's rings and doorbell are
// re-armed from index zero and every in-flight command is failed with
// StatusReset — a retryable status, so Wait-side owners resubmit them
// (bounded by maxRetries) once the reset completes. Work that straddles
// the reset (a TGT mid-fetch, a worker mid-handler) is fenced off by the
// per-queue generation counter; the executed-response cache survives so
// resubmissions of commands that did execute still deduplicate.
func (d *Driver) reset(p *sim.Proc) {
	if d.resetting {
		return
	}
	d.resetting = true
	d.Resets++
	rs := d.o.Begin(p, "nvmefs.reset")
	rs.Pin() // controller resets are always recorder-worthy
	d.o.Sleep(p, resetDelay, obs.CompWait, "nvmefs.reset")
	for _, qs := range d.queues {
		qs.gen++
		// Fail in-flight commands in CID order (deterministic iteration).
		for c := 0; c < d.cfg.Depth; c++ {
			if pd := qs.pending[uint16(c)]; pd != nil {
				d.retire(qs, pd, Completion{Status: nvme.StatusReset}, true)
				pd.notify()
			}
		}
		// Re-arm the rings. Only pending-held CIDs/slots were released
		// above: submitters parked mid-enqueue still own theirs and resume
		// against the fresh indices when the conds broadcast.
		qs.qp.SQTail, qs.qp.SQHead = 0, 0
		qs.qp.CQHead, qs.qp.CQTail = 0, 0
		qs.qp.CQPhase, qs.qp.CQPhaseDev = true, true
		qs.unrung = 0
		d.m.PCIe.MMIOWrite32(p, d.m.DPUMem, qs.doorbell, 0, "sq-doorbell-reset")
		qs.slotCond.Broadcast()
		qs.sqCond.Broadcast()
	}
	d.consecTimeouts = 0
	d.resetting = false
	rs.End(p)
}
