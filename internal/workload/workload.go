// Package workload provides fio/vdbench-style load generation for the
// experiments: access-pattern generators (random, sequential, mixed,
// file-create) and a closed-loop runner that drives N simulated threads
// through a warmup window and a measurement window, reporting IOPS,
// bandwidth and latency percentiles in virtual time.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dpc/internal/sim"
	"dpc/internal/stats"
)

// OpKind classifies one access.
type OpKind int

const (
	Read OpKind = iota
	Write
	Create
)

func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "create"
	}
}

// Access is one generated operation.
type Access struct {
	Kind OpKind
	Off  uint64
	Size int
	// Seq numbers creates (for unique file names).
	Seq int
}

// Generator produces the next access for a thread.
type Generator func(tid int, rng *rand.Rand, iter int) Access

// RandomGen generates uniformly random aligned accesses over a file,
// reading with probability readPct/100.
func RandomGen(ioSize int, fileSize uint64, readPct int) Generator {
	pages := fileSize / uint64(ioSize)
	if pages == 0 {
		panic(fmt.Sprintf("workload: file %d smaller than I/O %d", fileSize, ioSize))
	}
	return func(tid int, rng *rand.Rand, iter int) Access {
		kind := Write
		if rng.Intn(100) < readPct {
			kind = Read
		}
		return Access{Kind: kind, Off: uint64(rng.Int63n(int64(pages))) * uint64(ioSize), Size: ioSize}
	}
}

// SequentialGen generates a per-thread forward scan, wrapping at fileSize.
// Threads start at staggered offsets so concurrent scanners cover different
// regions instead of stampeding the same blocks.
func SequentialGen(ioSize int, fileSize uint64, kind OpKind) Generator {
	pages := fileSize / uint64(ioSize)
	if pages == 0 {
		panic(fmt.Sprintf("workload: file %d smaller than I/O %d", fileSize, ioSize))
	}
	return func(tid int, rng *rand.Rand, iter int) Access {
		start := uint64(tid) * 2654435761 % pages
		return Access{Kind: kind, Off: (start + uint64(iter)) % pages * uint64(ioSize), Size: ioSize}
	}
}

// ZipfGen generates skewed random reads: page popularity follows a Zipf
// distribution with exponent s (> 1), so a small set of hot pages absorbs
// most accesses — the access pattern where recency-aware cache replacement
// pays off.
func ZipfGen(ioSize int, fileSize uint64, s float64) Generator {
	return ZipfGenAt(ioSize, fileSize, s, 0)
}

// ZipfGenAt is ZipfGen with a distinct working set: base rotates the
// rank→page scatter, so generators with different bases concentrate their
// hot ranks on disjoint page regions of the same file. Every tenant of a
// multi-tenant run gets its own base (e.g. tenant*pages/tenants), which is
// what makes their hot sets non-colliding — the plain ZipfGen (base 0)
// previously gave every generator the exact same hot pages. base 0 is
// byte-identical to ZipfGen.
func ZipfGenAt(ioSize int, fileSize uint64, s float64, base uint64) Generator {
	pages := fileSize / uint64(ioSize)
	if pages == 0 {
		panic(fmt.Sprintf("workload: file %d smaller than I/O %d", fileSize, ioSize))
	}
	// One Zipf source per thread RNG, built on first use: rand.NewZipf
	// precomputes lookup tables (oneOverRegion etc.), so rebuilding it on
	// every access would dominate the generator's cost. Construction draws
	// nothing from rng, and each Zipf keeps drawing from the same per-thread
	// RNG it always did, so the access sequence is unchanged. The engine is
	// cooperatively scheduled, so the plain map needs no locking.
	zipfs := map[*rand.Rand]*rand.Zipf{}
	return func(tid int, rng *rand.Rand, iter int) Access {
		z := zipfs[rng]
		if z == nil {
			z = rand.NewZipf(rng, s, 1, pages-1)
			zipfs[rng] = z
		}
		pg := z.Uint64()
		// Scatter the rank->page mapping so hot pages spread over buckets;
		// the base offset rotates the whole mapping per working set.
		pg = (pg*2654435761 + base) % pages
		return Access{Kind: Read, Off: pg * uint64(ioSize), Size: ioSize}
	}
}

// CreateGen generates file creations (each with a small initial write of
// ioSize bytes, the paper's "8K file creation write").
func CreateGen(ioSize int) Generator {
	return func(tid int, rng *rand.Rand, iter int) Access {
		return Access{Kind: Create, Size: ioSize, Seq: iter}
	}
}

// Config shapes a run.
type Config struct {
	Threads int
	Warmup  time.Duration
	Measure time.Duration
	// Seed feeds the per-thread RNGs.
	Seed int64
}

// Result summarizes a measurement window.
type Result struct {
	Ops     int64
	Bytes   int64
	Elapsed time.Duration
	Lat     *stats.Latency
	// Errors counts failed operations (should be zero).
	Errors int64
}

// IOPS returns operations per second over the window.
func (r Result) IOPS() float64 { return stats.Rate(r.Ops, r.Elapsed) }

// GBps returns decimal-gigabytes per second over the window.
func (r Result) GBps() float64 { return stats.Throughput(r.Bytes, r.Elapsed) }

// Do executes one access; it returns an error to be counted.
type Do func(p *sim.Proc, tid int, a Access) error

// Run drives cfg.Threads closed-loop threads against do and measures the
// [Warmup, Warmup+Measure) window. It runs the engine itself (RunUntil),
// so pending background daemons keep working but do not prolong the run.
func Run(eng *sim.Engine, cfg Config, gen Generator, do Do) Result {
	if cfg.Threads <= 0 || cfg.Measure <= 0 {
		panic(fmt.Sprintf("workload: bad config %+v", cfg))
	}
	res := Result{Lat: stats.NewLatency()}
	start := eng.Now()
	warmupEnd := start + sim.Time(cfg.Warmup)
	end := warmupEnd + sim.Time(cfg.Measure)
	stop := false
	eng.Schedule(end, func() { stop = true })

	for t := 0; t < cfg.Threads; t++ {
		tid := t
		rng := rand.New(rand.NewSource(cfg.Seed + int64(tid)*7919))
		eng.Go(fmt.Sprintf("load-%d", tid), func(p *sim.Proc) {
			for iter := 0; !stop; iter++ {
				a := gen(tid, rng, iter)
				t0 := p.Now()
				err := do(p, tid, a)
				t1 := p.Now()
				if t0 >= warmupEnd && t1 <= end {
					if err != nil {
						res.Errors++
					} else {
						res.Ops++
						res.Bytes += int64(a.Size)
						res.Lat.Record(t1.Sub(t0))
					}
				}
			}
		})
	}
	eng.RunUntil(end)
	res.Elapsed = cfg.Measure
	return res
}
