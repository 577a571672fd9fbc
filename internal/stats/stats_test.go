package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestLatencyBasics(t *testing.T) {
	l := NewLatency()
	if l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 || l.Percentile(50) != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	for _, d := range []time.Duration{30, 10, 20} {
		l.Record(d)
	}
	if l.Count() != 3 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 20 {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if l.Min() != 10 || l.Max() != 30 {
		t.Fatalf("Min/Max = %v/%v", l.Min(), l.Max())
	}
}

func TestLatencyPercentiles(t *testing.T) {
	l := NewLatency()
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i))
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0, 1},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLatencyRecordAfterPercentile(t *testing.T) {
	l := NewLatency()
	l.Record(10)
	l.Record(30)
	_ = l.Percentile(50)
	l.Record(20)
	if got := l.Percentile(100); got != 30 {
		t.Fatalf("P100 = %v, want 30", got)
	}
	if l.Count() != 3 {
		t.Fatalf("Count = %d", l.Count())
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		l := NewLatency()
		for i := 0; i < int(n); i++ {
			l.Record(time.Duration(rng.Intn(1_000_000)))
		}
		prev := time.Duration(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := l.Percentile(p)
			if v < prev || v < l.Min() || v > l.Max() {
				return false
			}
			prev = v
		}
		return l.Percentile(100) == l.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedBucketBoundaries(t *testing.T) {
	// The first 2^histSubBits buckets are exact single values; past them,
	// each octave splits into 2^histSubBits linear sub-buckets.
	cases := []struct {
		v   int64
		idx int
		le  int64 // inclusive upper bound of that bucket
	}{
		{0, 0, 0}, {1, 1, 1}, {7, 7, 7}, // exact range
		{8, 8, 8}, {15, 15, 15}, // msb=3: still exact (width 1)
		{16, 16, 17}, {17, 16, 17}, // msb=4: width-2 buckets
		{18, 17, 19}, {31, 23, 31},
		{32, 24, 35}, {35, 24, 35}, {36, 25, 39}, // msb=5: width 4
		{1 << 42, (histMaxMSB - histSubBits + 1) * histSubBuckets, 0}, // last octave
		{1 << 50, histNumBuckets - 1, 0},                              // clamps
		{1 << 62, histNumBuckets - 1, 0},
	}
	for _, c := range cases {
		if got := histIndex(c.v); got != c.idx {
			t.Errorf("histIndex(%d) = %d, want %d", c.v, got, c.idx)
		}
		if c.le != 0 {
			if got := histUpperBound(c.idx); got != c.le {
				t.Errorf("histUpperBound(%d) = %d, want %d", c.idx, got, c.le)
			}
		}
	}
	// Every value must land in a bucket whose bounds contain it, and bucket
	// upper bounds must be strictly increasing.
	prev := int64(-1)
	for i := 0; i < histNumBuckets; i++ {
		ub := histUpperBound(i)
		if ub <= prev {
			t.Fatalf("bucket %d upper bound %d <= previous %d", i, ub, prev)
		}
		if got := histIndex(ub); got != i {
			t.Fatalf("histIndex(histUpperBound(%d)=%d) = %d", i, ub, got)
		}
		prev = ub
	}
}

func TestBoundedPercentileApproximation(t *testing.T) {
	exact := NewLatency()
	bounded := NewLatencyBounded()
	if bounded.Buckets() != nil {
		t.Fatal("empty recorder reports buckets")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.Intn(50_000_000)) // up to 50 ms
		exact.Record(d)
		bounded.Record(d)
	}
	if bounded.buckets == nil || exact.buckets != nil {
		t.Fatal("recorders in the wrong mode")
	}
	if bounded.Count() != exact.Count() || bounded.Mean() != exact.Mean() ||
		bounded.Min() != exact.Min() || bounded.Max() != exact.Max() {
		t.Fatalf("count/mean/min/max must be exact in bounded mode")
	}
	// Buckets lists the populated buckets in ascending order, every sample once.
	var n int64
	le := time.Duration(-1)
	for _, b := range bounded.Buckets() {
		if b.LE <= le || b.Count == 0 {
			t.Fatalf("bucket %+v after LE %v", b, le)
		}
		le, n = b.LE, n+b.Count
	}
	if n != int64(bounded.Count()) {
		t.Fatalf("buckets hold %d samples, want %d", n, bounded.Count())
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
		e, b := exact.Percentile(p), bounded.Percentile(p)
		if b < e {
			t.Errorf("P%v: bounded %v < exact %v (upper bound must not undershoot)", p, b, e)
		}
		// One bucket width: <= 1/2^histSubBits relative error.
		if float64(b) > float64(e)*(1+1.0/histSubBuckets)+1 {
			t.Errorf("P%v: bounded %v overshoots exact %v by more than a bucket", p, b, e)
		}
	}
}

func TestCounterWindow(t *testing.T) {
	var c Counter
	c.Add(100)
	c.Mark()
	c.Add(50)
	c.Inc()
	if c.Total() != 151 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.Delta() != 51 {
		t.Fatalf("Delta = %d", c.Delta())
	}
}

func TestRateAndThroughput(t *testing.T) {
	if r := Rate(1000, time.Second); r != 1000 {
		t.Fatalf("Rate = %v", r)
	}
	if r := Rate(500, 500*time.Millisecond); r != 1000 {
		t.Fatalf("Rate = %v", r)
	}
	if r := Rate(10, 0); r != 0 {
		t.Fatalf("Rate with zero window = %v", r)
	}
	if tp := Throughput(2e9, time.Second); tp != 2.0 {
		t.Fatalf("Throughput = %v", tp)
	}
}
