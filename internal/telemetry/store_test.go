package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestStoreZeroBackfill checks that a column appearing mid-run is padded
// with zeros for earlier ticks, keeping the export rectangular.
func TestStoreZeroBackfill(t *testing.T) {
	s := newStore(100_000, 1024)
	s.beginTick(100_000)
	s.set("a", 1)
	s.beginTick(200_000)
	s.set("a", 2)
	s.set("b", 9)

	if got := s.cols["a"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("column a = %v, want [1 2]", got)
	}
	if got := s.cols["b"]; len(got) != 2 || got[0] != 0 || got[1] != 9 {
		t.Errorf("late column b = %v, want zero-backfilled [0 9]", got)
	}
	if names := s.ColumnNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ColumnNames = %v", names)
	}
}

// TestStoreTickCap checks rows past the cap are dropped and counted, not
// silently folded into the series.
func TestStoreTickCap(t *testing.T) {
	s := newStore(100_000, 2)
	for i := int64(1); i <= 5; i++ {
		if s.beginTick(i * 100_000) {
			s.set("a", float64(i))
		}
	}
	if s.Ticks() != 2 || s.DroppedTicks() != 3 {
		t.Errorf("ticks=%d dropped=%d, want 2/3", s.Ticks(), s.DroppedTicks())
	}
	if got := s.cols["a"]; len(got) != 2 {
		t.Errorf("column a = %v, want 2 stored values", got)
	}
}

// TestStoreMarshalStable checks two identically-fed stores export identical
// bytes — the determinism contract for committed timelines.
func TestStoreMarshalStable(t *testing.T) {
	build := func() *Store {
		s := newStore(100_000, 64)
		s.beginTick(100_000)
		s.set("x:rate", 1234.5)
		s.set("y:p99", 99_000)
		s.beginTick(200_000)
		s.set("x:rate", 0.1)
		s.set("y:p99", 101_000)
		return s
	}
	b1, err1 := json.Marshal(build())
	b2, err2 := json.Marshal(build())
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal: %v / %v", err1, err2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("identical stores marshal differently:\n%s\n%s", b1, b2)
	}
	var doc map[string]any
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc["ticks"].(float64) != 2 {
		t.Errorf("ticks = %v, want 2", doc["ticks"])
	}
}

// TestSpliceCounterTrack checks counter events land inside the trace's
// traceEvents array and the result stays valid JSON.
func TestSpliceCounterTrack(t *testing.T) {
	s := newStore(100_000, 64)
	s.beginTick(100_000)
	s.set("q.depth", 3)
	events := s.PerfettoCounterEvents()
	if len(events) == 0 {
		t.Fatal("no counter events rendered")
	}

	trace := []byte("{\"traceEvents\":[\n{\"ph\":\"X\",\"name\":\"op\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1}\n]}\n")
	out := SpliceCounterTrack(trace, events)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("spliced trace is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("spliced trace has %d events, want 2", len(doc.TraceEvents))
	}
	c := doc.TraceEvents[1]
	if c["ph"] != "C" || c["name"] != "q.depth" {
		t.Errorf("counter event = %v", c)
	}
	// ts is microseconds: 100000ns -> 100.000us.
	if c["ts"].(float64) != 100 {
		t.Errorf("counter ts = %v, want 100", c["ts"])
	}

	// A trace without the expected trailer passes through untouched.
	odd := []byte("{}")
	if got := SpliceCounterTrack(odd, events); !bytes.Equal(got, odd) {
		t.Error("malformed trace was modified")
	}
}
