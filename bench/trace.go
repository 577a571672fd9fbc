package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"

	"dpc/internal/cache"
	"dpc/internal/kvfs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// span is one recorded call into a layer. Virtual times are nanoseconds of
// the modelled machine; wall times are nanoseconds of this process since the
// tracer was created. A wall interval around a blocking call in a
// cooperative simulator also covers whatever other procs ran meanwhile, so
// only the virtual interval is used for per-layer figures.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Proc   int32  `json:"proc"`   // application thread that owns the op, -1 for DPU background work
	Op     int32  `json:"op"`     // op index within the proc; spans of one op share (proc, op)
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	VStart int64  `json:"virt_start_ns"`
	VEnd   int64  `json:"virt_end_ns"`
	WStart int64  `json:"wall_start_ns"`
	WEnd   int64  `json:"wall_end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: every method is a pointer test and nothing else.
type tracer struct {
	t0        time.Time
	measuring bool
	spans     []span

	// PCIe events labelled cache-scan (the control plane's meta-table scans),
	// counted by the link listener during the measured phase.
	scanDMAs, scanBytes int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(p *sim.Proc, name, layer string, proc, op int, parent int32) int32 {
	if t == nil || !t.measuring {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Proc: int32(proc), Op: int32(op), Name: name, Layer: layer,
		VStart: int64(p.Now()), WStart: int64(time.Since(t.t0)),
	})
	return id
}

func (t *tracer) end(id int32, p *sim.Proc) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.VEnd, s.WEnd = int64(p.Now()), int64(time.Since(t.t0))
}

// listen counts the link's cache-scan traffic while the tracer is measuring.
func (t *tracer) listen(l *pcie.Link) {
	l.Subscribe(func(ev pcie.Event) {
		if t.measuring && ev.Op == pcie.OpDMA && ev.Label == "cache-scan" {
			t.scanDMAs++
			t.scanBytes += int64(ev.Bytes)
		}
	})
}

// spanStats summarises the closed spans of one name.
type spanStats struct {
	count       int64
	virtNs      int64 // summed span duration
	selfNs      int64 // summed duration minus the part child spans cover
	p50VirtNs   int64
	durationsNs []int64
}

// byName groups closed spans by name and computes self time from the
// recorded parent links (children of one span never overlap: a proc makes
// its calls one after another).
func (t *tracer) byName() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			child[s.Parent] += s.VEnd - s.VStart
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.VEnd - s.VStart
		st.count++
		st.virtNs += d
		st.selfNs += d - child[s.ID]
		st.durationsNs = append(st.durationsNs, d)
	}
	for _, st := range out {
		sort.Slice(st.durationsNs, func(i, j int) bool { return st.durationsNs[i] < st.durationsNs[j] })
		st.p50VirtNs = percentile(st.durationsNs, 50)
	}
	return out
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedBackend decorates the cache control plane's backend — the cache.ctl →
// kvfs seam — with spans. It forwards the optional range read too, which the
// prefetcher finds by type assertion.
type tracedBackend struct {
	inner kvfs.PageBackend
	t     *tracer
}

var _ cache.RangeBackend = tracedBackend{}

func (b tracedBackend) ReadPage(p *sim.Proc, ino, lpn uint64, pageSize int) ([]byte, bool) {
	s := b.t.begin(p, "Backend.ReadPage", "kvfs", -1, 0, 0)
	data, ok := b.inner.ReadPage(p, ino, lpn, pageSize)
	b.t.end(s, p)
	return data, ok
}

func (b tracedBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	s := b.t.begin(p, "Backend.WritePage", "kvfs", -1, 0, 0)
	err := b.inner.WritePage(p, ino, lpn, pageSize, data)
	b.t.end(s, p)
	return err
}

func (b tracedBackend) ReadPageRange(p *sim.Proc, ino, lpn uint64, n, pageSize int) [][]byte {
	s := b.t.begin(p, "Backend.ReadPageRange", "kvfs", -1, 0, 0)
	pages := b.inner.ReadPageRange(p, ino, lpn, n, pageSize)
	b.t.end(s, p)
	return pages
}

// percentile is the nearest-rank q-th percentile of sorted values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*q/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
