package stats

import (
	"testing"
	"time"
)

// TestWindowBucketSubtraction checks the sliding-window invariant the
// telemetry sampler relies on: the delta between two cumulative bucket
// snapshots sums to exactly the number of samples recorded in between, and
// a delta against the zero snapshot sums to the run total.
func TestWindowBucketSubtraction(t *testing.T) {
	l := NewLatencyBounded()
	snap0 := make([]int64, BucketCount())
	if tot := l.CopyBuckets(snap0); tot != 0 {
		t.Fatalf("empty histogram total = %d, want 0", tot)
	}

	firstBatch := []time.Duration{
		3 * time.Microsecond, 40 * time.Microsecond, 41 * time.Microsecond,
		500 * time.Microsecond, 2 * time.Millisecond,
	}
	for _, d := range firstBatch {
		l.Record(d)
	}
	snap1 := make([]int64, BucketCount())
	tot1 := l.CopyBuckets(snap1)
	if tot1 != int64(len(firstBatch)) {
		t.Fatalf("total after first batch = %d, want %d", tot1, len(firstBatch))
	}

	secondBatch := []time.Duration{
		10 * time.Microsecond, 10 * time.Microsecond, 77 * time.Microsecond,
		1 * time.Millisecond, 9 * time.Millisecond, 100 * time.Millisecond, time.Second,
	}
	for _, d := range secondBatch {
		l.Record(d)
	}
	snap2 := make([]int64, BucketCount())
	tot2 := l.CopyBuckets(snap2)

	var deltaSum, runSum int64
	for i := range snap2 {
		d := snap2[i] - snap1[i]
		if d < 0 {
			t.Fatalf("bucket %d went backwards: %d -> %d", i, snap1[i], snap2[i])
		}
		deltaSum += d
		runSum += snap2[i] - snap0[i]
	}
	if deltaSum != int64(len(secondBatch)) {
		t.Errorf("window delta sums to %d, want %d", deltaSum, len(secondBatch))
	}
	if runSum != tot2 || runSum != int64(len(firstBatch)+len(secondBatch)) {
		t.Errorf("delta vs zero snapshot sums to %d, want run total %d", runSum, tot2)
	}
}

// TestWindowQuantileMonotone checks that windowed quantiles are monotone in
// q and bracketed by the window's extremes (up to bucket granularity).
func TestWindowQuantileMonotone(t *testing.T) {
	l := NewLatencyBounded()
	for i := 1; i <= 1000; i++ {
		l.Record(time.Duration(i) * time.Microsecond)
	}
	delta := make([]int64, BucketCount())
	total := l.CopyBuckets(delta)
	if total != 1000 {
		t.Fatalf("total = %d, want 1000", total)
	}

	qs := []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}
	prev := int64(0)
	for _, q := range qs {
		v := WindowQuantile(delta, total, q)
		if v < prev {
			t.Errorf("quantile not monotone: q=%g -> %dns < previous %dns", q, v, prev)
		}
		prev = v
	}
	// Bucket upper bounds overestimate by at most one sub-bucket width
	// (12.5% relative error).
	p50 := WindowQuantile(delta, total, 0.50)
	if p50 < 500_000 || p50 > 570_000 {
		t.Errorf("p50 = %dns, want ~500us within bucket error", p50)
	}
	max := WindowQuantile(delta, total, 1.0)
	if max < 1_000_000 || max > 1_130_000 {
		t.Errorf("p100 = %dns, want ~1ms within bucket error", max)
	}
}

// TestWindowQuantileEmpty checks that an empty window reports 0 rather than
// resurrecting stale cumulative state.
func TestWindowQuantileEmpty(t *testing.T) {
	delta := make([]int64, BucketCount())
	if v := WindowQuantile(delta, 0, 0.99); v != 0 {
		t.Errorf("empty window p99 = %d, want 0", v)
	}
}

// TestCopyBucketsExactMode checks the exact-mode (unbounded) histogram
// reports no bucket support, so callers fall back rather than reading junk.
func TestCopyBucketsExactMode(t *testing.T) {
	l := NewLatency()
	l.Record(time.Millisecond)
	dst := make([]int64, BucketCount())
	if tot := l.CopyBuckets(dst); tot != 0 {
		t.Errorf("exact-mode CopyBuckets total = %d, want 0", tot)
	}
}

// TestBucketUpperMonotone pins the bucket bound ordering WindowQuantile
// depends on.
func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < BucketCount(); i++ {
		u := histUpperBound(i)
		if u <= prev {
			t.Fatalf("histUpperBound(%d) = %d, not above histUpperBound(%d) = %d", i, u, i-1, prev)
		}
		prev = u
	}
}
