package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"dpc/internal/sim"
)

// Tracer records spans: named intervals of virtual time forming a tree. One
// client operation yields a nested span tree across layers — client op →
// cache probe → nvme-fs submit → TGT processing → dispatch → backend — with
// PCIe DMA events attached as instant annotations.
//
// Each sim process carries a span stack in its Proc.Ctx slot, so Begin picks
// the enclosing span automatically within one process; cross-process hops
// (host submitter → DPU TGT thread → worker) propagate the parent span
// explicitly via Current/BeginChild.
type Tracer struct {
	nextID  uint64
	open    map[uint64]*spanRec
	done    []*spanRec
	orphans []annot // instant events with no enclosing span

	// maxSpans bounds memory on long runs; spans beyond it are counted,
	// not recorded.
	maxSpans   int
	dropped    int64
	droppedIvs int64

	// tids maps process names to stable Perfetto thread ids, in first-use
	// order (deterministic because the simulation is).
	tids     map[string]int
	tidOrder []string

	// closeHook, when set (by the telemetry flight recorder), observes every
	// span as it closes. pinned reports whether the span — or any descendant
	// that closed under it — was marked anomalous with Span.Pin.
	closeHook func(sd SpanData, pinned bool)
}

type annot struct {
	at    sim.Time
	name  string
	bytes int64
	tid   int
}

type spanRec struct {
	id     uint64
	parent uint64
	name   string
	tid    int
	start  sim.Time
	end    sim.Time
	annots []annot
	ivs    []ivRec // attributed component intervals
	// pinned marks the span anomalous (error/timeout status, degraded-mode
	// entry). Pins bubble to the enclosing open parent at End, so a fault
	// deep in the transport pins the whole client-op tree by the time the
	// root closes.
	pinned bool
}

// defaultMaxSpans bounds a tracer to ~1M spans.
const defaultMaxSpans = 1 << 20

func newTracer() *Tracer {
	return &Tracer{
		open:     map[uint64]*spanRec{},
		maxSpans: defaultMaxSpans,
		tids:     map[string]int{},
	}
}

// Dropped reports how many spans were discarded over the cap.
func (t *Tracer) Dropped() int64 { return t.dropped }

// Span is a handle to an in-flight span. The zero Span (from a disabled
// tracer or a dropped record) is valid and no-ops everywhere.
type Span struct {
	t  *Tracer
	id uint64
}

// Valid reports whether the span records anything.
func (s Span) Valid() bool { return s.t != nil && s.id != 0 }

// SetParent re-parents an open span. The NVME-TGT thread opens its span
// before the SQE fetch reveals which submission the work belongs to, then
// links it under the submitter's span once the CID is known.
func (s Span) SetParent(parent Span) {
	if !s.Valid() {
		return
	}
	if rec := s.t.open[s.id]; rec != nil {
		rec.parent = parent.id
	}
}

// ID returns the span's record id (0 for an invalid span).
func (s Span) ID() uint64 { return s.id }

// Pin marks an open span anomalous — an error/timeout outcome, a retry, a
// degraded-mode entry. The mark bubbles to the enclosing open parent when
// the span ends, so the flight recorder sees the whole causal tree pinned
// once its root closes. Pinning a closed or invalid span is a no-op, as is
// pinning when no recorder has registered a close hook (one bool store).
func (s Span) Pin() {
	if !s.Valid() {
		return
	}
	if rec := s.t.open[s.id]; rec != nil {
		rec.pinned = true
	}
}

// SetCloseHook registers fn to observe every span as it closes (the
// telemetry flight recorder's feed). The SpanData passed to fn shares the
// tracer's name/proc strings; its Intervals are copied only when the span
// recorded any.
func (t *Tracer) SetCloseHook(fn func(sd SpanData, pinned bool)) { t.closeHook = fn }

// procStack is the per-process span stack hung on Proc.Ctx.
type procStack struct{ ids []uint64 }

func stackOf(p *sim.Proc) *procStack {
	if s, ok := p.Ctx.(*procStack); ok {
		return s
	}
	s := &procStack{}
	p.Ctx = s
	return s
}

func (t *Tracer) tidOf(name string) int {
	if tid, ok := t.tids[name]; ok {
		return tid
	}
	tid := len(t.tidOrder) + 1
	t.tids[name] = tid
	t.tidOrder = append(t.tidOrder, name)
	return tid
}

// begin opens a span under the given parent id and pushes it on p's stack.
func (t *Tracer) begin(p *sim.Proc, parent uint64, name string) Span {
	if len(t.done)+len(t.open) >= t.maxSpans {
		t.dropped++
		return Span{}
	}
	t.nextID++
	rec := &spanRec{
		id:     t.nextID,
		parent: parent,
		name:   name,
		tid:    t.tidOf(p.Name()),
		start:  p.Now(),
		end:    -1,
	}
	t.open[rec.id] = rec
	stackOf(p).ids = append(stackOf(p).ids, rec.id)
	return Span{t: t, id: rec.id}
}

// currentID returns the id of p's innermost open span (0 if none).
func (t *Tracer) currentID(p *sim.Proc) uint64 {
	if s, ok := p.Ctx.(*procStack); ok && len(s.ids) > 0 {
		return s.ids[len(s.ids)-1]
	}
	return 0
}

// End closes the span at virtual time p.Now() and pops it from p's stack.
// Ending out of order is tolerated (the stack entry is removed wherever it
// sits) so error paths cannot corrupt enclosing spans.
func (s Span) End(p *sim.Proc) {
	if !s.Valid() {
		return
	}
	rec := s.t.open[s.id]
	if rec == nil {
		return // double End
	}
	rec.end = p.Now()
	delete(s.t.open, s.id)
	s.t.done = append(s.t.done, rec)
	if st, ok := p.Ctx.(*procStack); ok {
		for i := len(st.ids) - 1; i >= 0; i-- {
			if st.ids[i] == s.id {
				st.ids = append(st.ids[:i], st.ids[i+1:]...)
				break
			}
		}
	}
	if rec.pinned {
		if parent := s.t.open[rec.parent]; parent != nil {
			parent.pinned = true
		}
	}
	if s.t.closeHook != nil {
		s.t.closeHook(rec.export(s.t, rec.end), rec.pinned)
	}
}

// export converts a record to its analysis form. Strings are shared with the
// tracer and Intervals copied only when attribution recorded any.
func (rec *spanRec) export(t *Tracer, end sim.Time) SpanData {
	sd := SpanData{
		ID:     rec.id,
		Parent: rec.parent,
		Name:   rec.name,
		Proc:   t.tidOrder[rec.tid-1],
		Start:  rec.start,
		End:    end,
	}
	if len(rec.ivs) > 0 {
		sd.Intervals = make([]Interval, len(rec.ivs))
		for j, iv := range rec.ivs {
			sd.Intervals[j] = Interval{Comp: iv.comp, Kind: iv.kind, Start: iv.start, End: iv.end}
		}
		sort.Slice(sd.Intervals, func(a, b int) bool {
			return sd.Intervals[a].Start < sd.Intervals[b].Start
		})
	}
	return sd
}

// annotate attaches an instant event to p's innermost open span, or records
// it as a top-level instant when no span is open.
func (t *Tracer) annotate(p *sim.Proc, name string, bytes int64) {
	a := annot{at: p.Now(), name: name, bytes: bytes, tid: t.tidOf(p.Name())}
	if id := t.currentID(p); id != 0 {
		if rec := t.open[id]; rec != nil {
			rec.annots = append(rec.annots, a)
			return
		}
	}
	if len(t.orphans) < t.maxSpans {
		t.orphans = append(t.orphans, a)
	} else {
		t.dropped++
	}
}

// ---- Perfetto export ----

// writeTS renders a virtual-time instant as Chrome-trace microseconds with
// nanosecond precision ("12.345").
func writeTS(b *bytes.Buffer, ts sim.Time) {
	fmt.Fprintf(b, "%d.%03d", int64(ts)/1000, int64(ts)%1000)
}

// Perfetto renders every recorded span and annotation as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing). Spans still open at export
// are closed at `now`. Output is byte-stable: events are ordered by
// (start time, span id) and all fields render deterministically.
func (t *Tracer) Perfetto(now sim.Time) []byte {
	var b bytes.Buffer
	b.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")

	first := true
	emit := func(f func()) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		f()
	}

	// Thread name metadata, in first-use order.
	for i, name := range t.tidOrder {
		tid := i + 1
		emit(func() {
			fmt.Fprintf(&b, `{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%s}}`,
				tid, strconv.Quote(name))
		})
	}

	// Collect spans (closing open ones at now) and sort by (start, id).
	spans := make([]*spanRec, 0, len(t.done)+len(t.open))
	spans = append(spans, t.done...)
	for _, rec := range t.open {
		spans = append(spans, rec)
	}
	sortSpans(spans)

	for _, rec := range spans {
		end := rec.end
		if end < 0 {
			end = now
		}
		emit(func() {
			b.WriteString(`{"ph":"X","name":`)
			b.WriteString(strconv.Quote(rec.name))
			b.WriteString(`,"cat":"dpc","pid":1,"tid":`)
			b.WriteString(strconv.Itoa(rec.tid))
			b.WriteString(`,"ts":`)
			writeTS(&b, rec.start)
			b.WriteString(`,"dur":`)
			writeTS(&b, end-rec.start)
			fmt.Fprintf(&b, `,"args":{"span":%d,"parent":%d`, rec.id, rec.parent)
			if len(rec.ivs) > 0 {
				b.WriteString(`,"iv":[`)
				for i, iv := range rec.ivs {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `[%s,%s,%d,%d]`,
						strconv.Quote(iv.comp.String()), strconv.Quote(iv.kind),
						int64(iv.start), int64(iv.end))
				}
				b.WriteByte(']')
			}
			b.WriteString("}}")
		})
		for _, a := range rec.annots {
			emitAnnot(&b, emit, a, rec.id)
		}
	}
	for _, a := range t.orphans {
		emitAnnot(&b, emit, a, 0)
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

func emitAnnot(b *bytes.Buffer, emit func(func()), a annot, span uint64) {
	emit(func() {
		b.WriteString(`{"ph":"i","s":"t","name":`)
		b.WriteString(strconv.Quote(a.name))
		b.WriteString(`,"cat":"dpc","pid":1,"tid":`)
		b.WriteString(strconv.Itoa(a.tid))
		b.WriteString(`,"ts":`)
		writeTS(b, a.at)
		fmt.Fprintf(b, `,"args":{"span":%d,"bytes":%d}}`, span, a.bytes)
	})
}

// sortSpans orders by (start, id). Ids are unique, so the order is total
// and the export deterministic.
func sortSpans(spans []*spanRec) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].id < spans[j].id
	})
}

// SpanCount reports how many spans completed (tests).
func (t *Tracer) SpanCount() int { return len(t.done) }
