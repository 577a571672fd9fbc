package telemetry

import (
	"sort"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Recorder is the always-on bounded flight recorder: a ring buffer over the
// most recently closed spans, fed by the tracer's close hook. Steady state
// is allocation-free — each closed span is copied into a preallocated ring
// slot (string headers shared with the tracer, intervals only present when
// profiling recorded any).
//
// Anomalous spans are tail-sampled: a root that closes pinned (error or
// timeout status, degraded-mode entry, bubbled from any descendant) or
// slower than the slow threshold has its whole causal tree assembled from
// the ring and kept in a small tree ring, so a later dump still holds the
// trace even after ordinary traffic has churned the main ring past it.
type Recorder struct {
	ring  []obs.SpanData
	next  int
	total int64

	// slowNs pins roots lasting at least this long (0 disables).
	slowNs int64

	// trees holds the most recently assembled anomalous trees.
	trees    []PinnedTree
	treeNext int
	treeCap  int

	// faultRoots counts pinned (not merely slow) roots closed since the last
	// takeFaults — the sampler's fault-dump trigger.
	faultRoots int64

	// byID is reusable scratch for tree assembly (anomaly path only).
	byID []int
}

// PinnedTree is one tail-sampled anomalous span tree.
type PinnedTree struct {
	RootID  uint64
	Reason  string // "fault" (pinned) or "slow"
	CloseNs int64
	Spans   []obs.SpanData
}

func newRecorder(ringCap int, slowNs int64, treeCap int) *Recorder {
	return &Recorder{
		ring:    make([]obs.SpanData, ringCap),
		slowNs:  slowNs,
		trees:   make([]PinnedTree, 0, treeCap),
		treeCap: treeCap,
	}
}

// observe is the tracer close hook. Hot path: one slot assignment.
func (r *Recorder) observe(sd obs.SpanData, pinned bool) {
	r.ring[r.next] = sd
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
	if sd.Parent != 0 {
		return
	}
	// Root closed: decide whether its tree is worth keeping.
	reason := ""
	if pinned {
		reason = "fault"
		r.faultRoots++
	} else if r.slowNs > 0 && int64(sd.End-sd.Start) >= r.slowNs {
		reason = "slow"
	}
	if reason != "" {
		r.keepTree(sd, reason)
	}
}

// takeFaults returns how many fault-pinned roots closed since the last call.
func (r *Recorder) takeFaults() int64 {
	n := r.faultRoots
	r.faultRoots = 0
	return n
}

// Total reports how many spans passed through the ring.
func (r *Recorder) Total() int64 { return r.total }

// Trees returns the retained anomalous trees in close order (oldest first).
func (r *Recorder) Trees() []PinnedTree {
	out := make([]PinnedTree, 0, len(r.trees))
	out = append(out, r.trees[r.treeNext:]...)
	out = append(out, r.trees[:r.treeNext]...)
	return out
}

// keepTree assembles root's causal tree from the ring and retains it,
// overwriting the oldest retained tree when the tree ring is full. This is
// the anomaly path; it may allocate.
func (r *Recorder) keepTree(root obs.SpanData, reason string) {
	if r.treeCap == 0 {
		return
	}
	// Order live ring entries by span id. A parent begins — and therefore
	// takes its id — before any of its children, so one pass over ids in
	// increasing order sees every span's parent before the span itself.
	r.byID = r.byID[:0]
	for i := range r.ring {
		if r.ring[i].ID != 0 {
			r.byID = append(r.byID, i)
		}
	}
	sort.Slice(r.byID, func(a, b int) bool {
		return r.ring[r.byID[a]].ID < r.ring[r.byID[b]].ID
	})
	member := map[uint64]bool{root.ID: true}
	spans := make([]obs.SpanData, 0, 8)
	for _, i := range r.byID {
		sd := r.ring[i]
		if sd.ID == root.ID || (sd.Parent != 0 && member[sd.Parent]) {
			member[sd.ID] = true
			spans = append(spans, sd)
		}
	}
	t := PinnedTree{RootID: root.ID, Reason: reason, CloseNs: int64(root.End), Spans: spans}
	if len(r.trees) < r.treeCap {
		r.trees = append(r.trees, t)
		return
	}
	r.trees[r.treeNext] = t
	r.treeNext++
	if r.treeNext == r.treeCap {
		r.treeNext = 0
	}
}

// windowSpans appends every ring span that was still running at or after lo
// to out, plus every span of every retained anomalous tree (pinned trees
// outlive ring churn), deduplicated by id and sorted by (start, id) — the
// shape internal/prof expects.
func (r *Recorder) windowSpans(lo sim.Time, out []obs.SpanData) []obs.SpanData {
	seen := map[uint64]bool{}
	for i := range r.ring {
		sd := r.ring[i]
		if sd.ID != 0 && sd.End >= lo && !seen[sd.ID] {
			seen[sd.ID] = true
			out = append(out, sd)
		}
	}
	for _, t := range r.trees {
		for _, sd := range t.Spans {
			if !seen[sd.ID] {
				seen[sd.ID] = true
				out = append(out, sd)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].ID < out[b].ID
	})
	return out
}
