package main

import (
	"strings"
	"testing"

	"dpc/internal/obs"
)

// TestRenderGolden pins the full report byte-for-byte, including the
// p50/p95/p99 columns recomputed from log-spaced buckets (p95/p99 land in
// the 4µs bucket and clamp to the observed 3.5µs max) and the tracer
// health section from a profiled snapshot.
func TestRenderGolden(t *testing.T) {
	dropped := int64(2)
	snap := obs.Snapshot{
		SimTimeNs: 1_500_000,
		Counters: map[string]int64{
			"cache.host.hits":   7,
			"pcie.link.dmas":    8,
			"nvmefs.driver.ops": 2,
		},
		Gauges: map[string]float64{
			"nvmefs.q0.sq_depth": 3,
		},
		Histograms: map[string]obs.HistSnapshot{
			"client.write.latency": {
				Count: 4, SumNs: 8000, MinNs: 800, MaxNs: 3500,
				P50Ns: 2000, P99Ns: 3500,
				Buckets: []obs.HistBucket{
					{LENs: 1000, Count: 1},
					{LENs: 2000, Count: 2},
					{LENs: 4000, Count: 1},
				},
			},
		},
		TracerDropped: &dropped,
		Series:        map[string]int64{"spans_closed": 42},
	}

	var b strings.Builder
	render(&b, snap)
	want := `snapshot at 1.5ms of virtual time

counters
  cache.host.hits                                 7

  nvmefs.driver.ops                               2

  pcie.link.dmas                                  8

gauges
  nvmefs.q0.sq_depth                              3

histograms
                                  count        p50        p95        p99        max       mean
  client.write.latency                4        2µs      3.5µs      3.5µs      3.5µs        2µs

tracer
  dropped_spans                                   2
  spans_closed                                   42
`
	if got := b.String(); got != want {
		t.Errorf("render output:\n%s\nwant:\n%s", got, want)
	}
}

// TestQuantileFromBuckets covers the nearest-rank edges: below the first
// bucket, mid-distribution, and the max clamp.
func TestQuantileFromBuckets(t *testing.T) {
	h := obs.HistSnapshot{
		Count: 10, MinNs: 90, MaxNs: 900,
		Buckets: []obs.HistBucket{
			{LENs: 128, Count: 5},
			{LENs: 1024, Count: 5},
		},
	}
	if got := h.Quantile(0.5); got != 128 {
		t.Errorf("p50 = %d, want 128", got)
	}
	if got := h.Quantile(0.99); got != 900 {
		t.Errorf("p99 = %d, want clamp to max 900", got)
	}
	if got := h.Quantile(0); got != 90 {
		t.Errorf("q0 = %d, want min 90", got)
	}
	if got := (obs.HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}
