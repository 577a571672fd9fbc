// Package prof is a deterministic critical-path profiler over the obs span
// store. It answers "where did this 28 µs go?": every closed span's wall
// time is decomposed into CPU compute, PCIe DMA/MMIO, SSD service, wait
// (queue/lock/slot/backoff) and other components that sum exactly to the
// span's duration, and for each root span the concurrent span tree is
// collapsed into the serial chain that bounds latency.
//
// Inputs are obs.SpanData slices — either live (Tracer.Export) or
// reconstructed from a Perfetto trace file (ParsePerfetto) — so the same
// analysis runs in-process, in tests, and in cmd/dpcreport. Everything is
// integer arithmetic over virtual time: identical traces produce
// byte-identical reports.
package prof

import (
	"fmt"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Attr is a per-component time breakdown in nanoseconds, indexed by
// obs.Component.
type Attr [obs.NumComponents]int64

// Add accumulates ns into the component's bucket.
func (a *Attr) Add(c obs.Component, ns int64) { a[c] += ns }

// AddAttr accumulates another breakdown.
func (a *Attr) AddAttr(b Attr) {
	for i := range a {
		a[i] += b[i]
	}
}

// Sum returns the total across all components.
func (a Attr) Sum() int64 {
	var s int64
	for _, v := range a {
		s += v
	}
	return s
}

// DMAWaitNs returns the transport-overhead portion: DMA + MMIO + wait.
func (a Attr) DMAWaitNs() int64 {
	return a[obs.CompDMA] + a[obs.CompMMIO] + a[obs.CompWait]
}

// DMAWaitShare returns DMA+MMIO+wait as a fraction of the total (0 when
// the total is zero).
func (a Attr) DMAWaitShare() float64 {
	t := a.Sum()
	if t == 0 {
		return 0
	}
	return float64(a.DMAWaitNs()) / float64(t)
}

// Map renders the breakdown as a component-name → ns map (JSON-friendly).
func (a Attr) Map() map[string]int64 {
	m := make(map[string]int64, obs.NumComponents)
	for c := obs.Component(0); c < obs.NumComponents; c++ {
		m[c.String()] = a[c]
	}
	return m
}

// Span is one analyzed span: the recorded data plus tree links and its
// attribution.
type Span struct {
	Data   obs.SpanData
	Parent *Span
	// Children are same-process children (their time is inside this span's
	// own execution); XChildren run on a different process (their time
	// overlaps this span's waits).
	Children  []*Span
	XChildren []*Span

	// Self is this span's own attributed time: recorded intervals plus the
	// unclaimed remainder (CompOther), excluding same-process children.
	// Total is Self plus the Totals of same-process children; when the
	// trace nests cleanly, Total.Sum() == Dur() exactly.
	Self  Attr
	Total Attr

	// Anomalous marks spans whose intervals or children did not tile
	// cleanly inside the span (negative residual or out-of-bounds child);
	// the sums are still exact, but a component may be negative.
	Anomalous bool
}

// Dur returns the span's wall duration.
func (s *Span) Dur() int64 { return int64(s.Data.End - s.Data.Start) }

// Profile is an analyzed trace.
type Profile struct {
	Spans []*Span // all spans, by (start, id)
	Roots []*Span // spans without a recorded parent, by (start, id)
	ByID  map[uint64]*Span

	// WaitKinds sums wait-interval time by kind over every span (the wait
	// taxonomy table: which queue/lock/slot the time was lost on).
	WaitKinds map[string]int64

	// Anomalies counts spans flagged Anomalous.
	Anomalies int
}

// Analyze builds the span tree and computes per-span attribution.
func Analyze(spans []obs.SpanData) *Profile {
	pr := &Profile{
		ByID:      make(map[uint64]*Span, len(spans)),
		WaitKinds: map[string]int64{},
	}
	for i := range spans {
		n := &Span{Data: spans[i]}
		pr.Spans = append(pr.Spans, n)
		pr.ByID[spans[i].ID] = n
	}
	// Spans arrive in (start, id) order, so children append in that order.
	for _, n := range pr.Spans {
		parent := pr.ByID[n.Data.Parent]
		if parent == nil || parent == n {
			pr.Roots = append(pr.Roots, n)
			continue
		}
		n.Parent = parent
		if parent.Data.Proc == n.Data.Proc {
			parent.Children = append(parent.Children, n)
		} else {
			parent.XChildren = append(parent.XChildren, n)
		}
	}
	for _, r := range pr.Roots {
		r.compute(pr)
	}
	// Spans under a dropped parent never got computed via a root; sweep.
	for _, n := range pr.Spans {
		if n.Total == (Attr{}) && n.Dur() > 0 {
			n.compute(pr)
		}
	}
	for _, n := range pr.Spans {
		if n.Anomalous {
			pr.Anomalies++
		}
		for _, iv := range n.Data.Intervals {
			if iv.Comp == obs.CompWait {
				pr.WaitKinds[iv.Kind] += int64(iv.End - iv.Start)
			}
		}
	}
	return pr
}

// compute fills Self and Total bottom-up. Same-process children are part of
// this span's timeline (subtracted from self); cross-process children are
// not — their time shows up as wait in this span and is substituted back in
// by the critical-path walk.
func (s *Span) compute(pr *Profile) {
	if s.Total != (Attr{}) {
		return // already computed via another path
	}
	for _, c := range s.Children {
		c.compute(pr)
	}
	for _, c := range s.XChildren {
		c.compute(pr)
	}
	dur := s.Dur()
	var ivSum int64
	for _, iv := range s.Data.Intervals {
		lo, hi := clip(iv.Start, iv.End, s.Data.Start, s.Data.End)
		if hi <= lo {
			continue
		}
		if iv.Start < s.Data.Start || iv.End > s.Data.End {
			s.Anomalous = true
		}
		s.Self.Add(iv.Comp, int64(hi-lo))
		ivSum += int64(hi - lo)
	}
	var childNs int64
	for _, c := range s.Children {
		lo, hi := clip(c.Data.Start, c.Data.End, s.Data.Start, s.Data.End)
		if hi > lo {
			childNs += int64(hi - lo)
		}
		if c.Data.Start < s.Data.Start || c.Data.End > s.Data.End {
			s.Anomalous = true
		}
	}
	residual := dur - childNs - ivSum
	if residual < 0 {
		s.Anomalous = true
	}
	// Keep the exact residual even when negative: the invariant
	// self+children == duration must hold to the nanosecond, and tests
	// assert no span ever goes anomalous in the first place.
	s.Self.Add(obs.CompOther, residual)
	s.Total = s.Self
	for _, c := range s.Children {
		s.Total.AddAttr(c.Total)
	}
}

func clip(lo, hi, wlo, whi sim.Time) (sim.Time, sim.Time) {
	if lo < wlo {
		lo = wlo
	}
	if hi > whi {
		hi = whi
	}
	return lo, hi
}

// CheckInvariant verifies that every span's attributed components sum
// exactly to its duration and that no component is negative. It returns one
// error per violating span (nil when the trace is clean).
func (pr *Profile) CheckInvariant() []error {
	var errs []error
	for _, n := range pr.Spans {
		if got, want := n.Total.Sum(), n.Dur(); got != want {
			errs = append(errs, fmt.Errorf("span %d %q: attribution %dns != duration %dns",
				n.Data.ID, n.Data.Name, got, want))
		}
		for c := obs.Component(0); c < obs.NumComponents; c++ {
			if n.Total[c] < 0 {
				errs = append(errs, fmt.Errorf("span %d %q: negative %s component %dns",
					n.Data.ID, n.Data.Name, c, n.Total[c]))
			}
		}
	}
	return errs
}
