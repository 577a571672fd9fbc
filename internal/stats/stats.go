// Package stats provides the measurement primitives used by every
// experiment: latency recorders with percentiles, operation counters and
// windowed rate meters. All values are recorded in virtual time, so the
// numbers are deterministic across runs.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Log-linear ("HDR-style") bucket geometry for the bounded recorder: each
// power-of-two octave is split into 2^histSubBits linear sub-buckets, so the
// relative bucket width — and hence the worst-case percentile error — is
// bounded by 1/2^histSubBits = 12.5%. Values up to histMaxValue nanoseconds
// (~73 virtual minutes) are resolved; larger ones clamp into the last bucket.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	histMaxMSB     = 42 // 2^42 ns ≈ 73 min
	histNumBuckets = (histMaxMSB-histSubBits+1)*histSubBuckets + histSubBuckets
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	if msb > histMaxMSB {
		return histNumBuckets - 1
	}
	shift := msb - histSubBits
	sub := int((v >> shift) & (histSubBuckets - 1))
	return (msb-histSubBits+1)*histSubBuckets + sub
}

// histUpperBound returns the largest value that lands in bucket idx
// (inclusive). The first histSubBuckets buckets are exact single values.
func histUpperBound(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	g := idx/histSubBuckets - 1 // octave group, 0-based past the exact range
	sub := idx % histSubBuckets
	shift := g // msb = g + histSubBits, shift = msb - histSubBits
	return (int64(histSubBuckets+sub+1) << shift) - 1
}

// BucketCount returns the number of buckets in the bounded recorder's
// log-linear geometry. Windowed consumers (the telemetry sampler) size their
// snapshot arrays with it.
func BucketCount() int { return histNumBuckets }

// BucketUpper returns the inclusive upper bound, in nanoseconds, of bucket
// idx in the bounded geometry.
func BucketUpper(idx int) int64 { return histUpperBound(idx) }

// CopyBuckets copies the raw bucket counts of a bounded recorder into dst
// (which must be at least BucketCount long) and returns the total sample
// count. It allocates nothing, so a periodic sampler can snapshot a live
// histogram every tick. Exact-mode recorders copy nothing and return 0.
func (l *Latency) CopyBuckets(dst []int64) int64 {
	if l.buckets == nil {
		return 0
	}
	copy(dst, l.buckets)
	return l.n
}

// WindowQuantile computes the q-quantile (0 < q <= 1) over a window of
// bucket-count deltas — the element-wise subtraction of two cumulative
// CopyBuckets snapshots — holding total samples. It uses the same
// nearest-rank rule as the live recorder: the result is the upper bound of
// the bucket containing the ranked sample, so window quantiles are monotone
// in q and may overshoot the window's true maximum by at most one bucket
// width (12.5%). An empty window returns 0.
func WindowQuantile(delta []int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			return histUpperBound(i)
		}
	}
	return histUpperBound(len(delta) - 1)
}

// Bucket is one populated histogram bucket: Count samples were <= LE (and
// greater than the previous bucket's LE).
type Bucket struct {
	LE    time.Duration
	Count int64
}

// Latency records a stream of durations and reports summary statistics.
//
// The default recorder keeps every sample (experiments record at most a few
// hundred thousand operations), which makes percentiles exact. The bounded
// variant (NewLatencyBounded) instead aggregates into log-linear buckets:
// constant memory regardless of sample count, percentiles approximate to
// within one bucket width (<= 12.5% relative error). Long-running torture
// and bench loops use the bounded mode so recording never grows the heap.
type Latency struct {
	samples []time.Duration
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	sorted  bool

	// Bounded mode: buckets is non-nil, n counts samples, samples stays nil.
	buckets []int64
	n       int64
}

// NewLatency returns an empty latency recorder that keeps every sample.
func NewLatency() *Latency {
	return &Latency{min: math.MaxInt64}
}

// NewLatencyBounded returns a recorder that aggregates samples into
// log-linear buckets instead of retaining them: memory is constant
// (histNumBuckets counters) and percentiles are approximate, reported as the
// upper bound of the bucket holding the requested rank.
func NewLatencyBounded() *Latency {
	return &Latency{min: math.MaxInt64, buckets: make([]int64, histNumBuckets)}
}

// Bounded reports whether this recorder aggregates into buckets.
func (l *Latency) Bounded() bool { return l.buckets != nil }

// Record adds one sample.
func (l *Latency) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if l.buckets != nil {
		l.buckets[histIndex(int64(d))]++
		l.n++
	} else {
		l.samples = append(l.samples, d)
		l.sorted = false
	}
	l.sum += d
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
}

// Count returns the number of samples recorded.
func (l *Latency) Count() int {
	if l.buckets != nil {
		return int(l.n)
	}
	return len(l.samples)
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (l *Latency) Mean() time.Duration {
	if n := l.Count(); n > 0 {
		return l.sum / time.Duration(n)
	}
	return 0
}

// Sum returns the total of all samples.
func (l *Latency) Sum() time.Duration { return l.sum }

// Min returns the smallest sample, or 0 with no samples.
func (l *Latency) Min() time.Duration {
	if l.Count() == 0 {
		return 0
	}
	return l.min
}

// Max returns the largest sample.
func (l *Latency) Max() time.Duration { return l.max }

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method. The exact recorder sorts lazily; the bounded one
// walks its buckets and reports the matching bucket's upper bound.
func (l *Latency) Percentile(p float64) time.Duration {
	if l.buckets != nil {
		return l.bucketPercentile(p)
	}
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	if p <= 0 {
		return l.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return l.samples[rank-1]
}

// bucketPercentile finds the bucket holding the nearest-rank sample.
func (l *Latency) bucketPercentile(p float64) time.Duration {
	if l.n == 0 {
		return 0
	}
	if p <= 0 {
		return l.min
	}
	rank := int64(math.Ceil(p / 100 * float64(l.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > l.n {
		rank = l.n
	}
	var seen int64
	for i, c := range l.buckets {
		seen += c
		if seen >= rank {
			ub := histUpperBound(i)
			// Never report past the observed extremes: the last bucket of a
			// narrow distribution can be much wider than the true max.
			if ub > int64(l.max) {
				ub = int64(l.max)
			}
			return time.Duration(ub)
		}
	}
	return l.max
}

// Buckets returns the populated buckets of a bounded recorder in ascending
// order (nil for the exact recorder or when empty).
func (l *Latency) Buckets() []Bucket {
	if l.buckets == nil {
		return nil
	}
	var out []Bucket
	for i, c := range l.buckets {
		if c != 0 {
			out = append(out, Bucket{LE: time.Duration(histUpperBound(i)), Count: c})
		}
	}
	return out
}

// Reset discards all samples.
func (l *Latency) Reset() {
	l.samples = l.samples[:0]
	if l.buckets != nil {
		for i := range l.buckets {
			l.buckets[i] = 0
		}
		l.n = 0
	}
	l.sum = 0
	l.min = math.MaxInt64
	l.max = 0
	l.sorted = false
}

func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		l.Count(), l.Mean(), l.Percentile(50), l.Percentile(99), l.Max())
}

// Counter is the tree's one counter type: a monotonically increasing count
// held by the component that observes the event (obs.Registry.Publish exports
// it by name). Mark remembers the current value, Delta reports growth since
// Mark. A nil *Counter is a no-op sink that reads as zero.
type Counter struct {
	total  int64
	marked int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.total += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the all-time value.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Loc returns the count's storage, which is what the obs registry exports.
func (c *Counter) Loc() *int64 { return &c.total }

// Mark records the current value as the start of a measurement window.
func (c *Counter) Mark() { c.marked = c.total }

// Delta returns the growth since the last Mark.
func (c *Counter) Delta() int64 { return c.total - c.marked }

// Rate converts a delta over a window into a per-second rate.
func Rate(delta int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(delta) / window.Seconds()
}

// Throughput converts bytes over a window into GB/s (decimal gigabytes, as
// the paper reports).
func Throughput(bytes int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(bytes) / window.Seconds() / 1e9
}
