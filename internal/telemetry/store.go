package telemetry

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
)

// Store is a compact columnar time-series store: one timestamp row per
// sampler tick, one float64 column per exported series. Columns appear
// lazily (metrics are created on first use mid-run) and are zero-backfilled
// to the tick they first appear at, so every column always has exactly one
// value per tick and exports stay rectangular.
type Store struct {
	intervalNs int64
	times      []int64
	cols       map[string][]float64

	// maxTicks bounds memory on unbounded runs; ticks beyond it are counted,
	// not stored.
	maxTicks     int
	droppedTicks int64
}

func newStore(intervalNs int64, maxTicks int) *Store {
	return &Store{
		intervalNs: intervalNs,
		cols:       map[string][]float64{},
		maxTicks:   maxTicks,
	}
}

// Ticks returns how many sample rows are stored.
func (s *Store) Ticks() int { return len(s.times) }

// DroppedTicks returns how many rows were discarded over the cap.
func (s *Store) DroppedTicks() int64 { return s.droppedTicks }

// beginTick opens the sample row for virtual time now. It reports whether
// the row is recorded; when the store is full the row is dropped and counted.
func (s *Store) beginTick(nowNs int64) bool {
	if len(s.times) >= s.maxTicks {
		s.droppedTicks++
		return false
	}
	s.times = append(s.times, nowNs)
	return true
}

// set records one series value for the current (just-begun) tick. A column
// seen for the first time is backfilled with zeros for all earlier ticks.
func (s *Store) set(name string, v float64) {
	col, ok := s.cols[name]
	if !ok {
		col = make([]float64, len(s.times)-1)
	}
	s.cols[name] = append(col, v)
}

// ColumnNames returns all series names, sorted.
func (s *Store) ColumnNames() []string {
	out := make([]string, 0, len(s.cols))
	for k := range s.cols {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// seriesJSON is the JSON shape of a store export.
type seriesJSON struct {
	IntervalNs   int64                `json:"interval_ns"`
	Ticks        int                  `json:"ticks"`
	DroppedTicks int64                `json:"dropped_ticks"`
	TimesNs      []int64              `json:"times_ns"`
	Columns      map[string][]float64 `json:"columns"`
}

// MarshalJSON renders the store byte-stably: map keys marshal sorted and
// float formatting is deterministic for identical inputs.
func (s *Store) MarshalJSON() ([]byte, error) {
	return json.Marshal(seriesJSON{
		IntervalNs:   s.intervalNs,
		Ticks:        len(s.times),
		DroppedTicks: s.droppedTicks,
		TimesNs:      s.times,
		Columns:      s.cols,
	})
}

// PerfettoCounterEvents renders every stored series as Chrome trace-event
// counter samples (`"ph":"C"`) — one event per tick per column, in sorted
// column order — ready to splice into a span trace so Perfetto shows queue
// depth, IOPS and hit-ratio graphs on counter tracks alongside the span
// timeline. The returned bytes are ",\n"-joined events with no enclosing
// brackets (empty when the store is empty).
func (s *Store) PerfettoCounterEvents() []byte {
	var b bytes.Buffer
	first := true
	for _, name := range s.ColumnNames() {
		col := s.cols[name]
		for i, v := range col {
			if !first {
				b.WriteString(",\n")
			}
			first = false
			b.WriteString(`{"ph":"C","name":`)
			b.WriteString(strconv.Quote(name))
			b.WriteString(`,"cat":"telemetry","pid":1,"ts":`)
			ts := s.times[i]
			b.WriteString(strconv.FormatInt(ts/1000, 10))
			b.WriteByte('.')
			frac := ts % 1000
			if frac < 100 {
				b.WriteByte('0')
			}
			if frac < 10 {
				b.WriteByte('0')
			}
			b.WriteString(strconv.FormatInt(frac, 10))
			b.WriteString(`,"args":{"v":`)
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteString("}}")
		}
	}
	return b.Bytes()
}

// SpliceCounterTrack inserts counter events (from PerfettoCounterEvents)
// into a Chrome trace rendered by obs.Tracer.Perfetto, before the trailing
// close of its traceEvents array. A trace without the expected trailer, or
// an empty event set, is returned unchanged.
func SpliceCounterTrack(trace, events []byte) []byte {
	const trailer = "\n]}\n"
	if len(events) == 0 || !bytes.HasSuffix(trace, []byte(trailer)) {
		return trace
	}
	body := trace[:len(trace)-len(trailer)]
	out := make([]byte, 0, len(trace)+len(events)+2)
	out = append(out, body...)
	out = append(out, ",\n"...)
	out = append(out, events...)
	out = append(out, trailer...)
	return out
}
