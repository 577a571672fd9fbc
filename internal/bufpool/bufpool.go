// Package bufpool is a deterministic tiered buffer pool for the data-path hot
// paths on both sides of the link. Steady-state operations (client RMW and
// direct-I/O chunk staging, cache fill buffers, the DPU's request buffers
// and flush/journal page pulls) recycle page-sized scratch buffers through it
// instead of allocating per op, so the Go layer stops exercising the
// allocator for work the simulated hardware never needed.
//
// The pool is a hand-rolled free list, not sync.Pool: sync.Pool drops
// buffers nondeterministically under GC pressure, which would make
// testing.AllocsPerRun regression gates flaky and perturb allocation
// behaviour between otherwise-identical runs. Here reuse is exact LIFO per
// size class, so a steady-state workload reaches a fixed point after warmup
// and the zero-alloc property is enforceable.
//
// The pool is intentionally lock-free-by-construction: the sim engine is
// cooperative and single-threaded, so Get/Put never race. A buffer popped by
// one goroutine is owned by it until Put.
package bufpool

// numClasses covers power-of-two sizes 2^6 (64 B) .. 2^17 (128 KiB): the
// span from sub-SQE inline payloads up to MaxIO-sized direct chunks.
const (
	minShift   = 6
	maxShift   = 17
	numClasses = maxShift - minShift + 1
	// perClassCap bounds retained buffers per class so a burst does not pin
	// memory forever. 64 matches the deepest per-queue depth in the driver.
	perClassCap = 64
)

// Pool is a tiered free list of byte slices. The zero value is NOT ready;
// use New. A nil *Pool is valid: Get falls back to make and Put discards,
// so callers never need to nil-check.
type Pool struct {
	classes [numClasses][][]byte

	// Gets counts successful pool hits, Misses counts Get calls that fell
	// through to make (cold pool or oversize), Puts counts buffers returned.
	Gets, Misses, Puts int64
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// classFor returns the class index for a request of n bytes, or -1 when n is
// outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxShift {
		return -1
	}
	c := 0
	for sz := 1 << minShift; sz < n; sz <<= 1 {
		c++
	}
	return c
}

// Get returns a zeroed slice of length n. Pooled buffers are recycled from
// the matching power-of-two class; requests outside the pooled range fall
// back to make. The returned slice is always fully zeroed — RMW staging
// relies on hole pages reading as zeros.
func (p *Pool) Get(n int) []byte {
	b := p.GetUncleared(n)
	clear(b)
	return b
}

// GetUncleared is Get without the clear: a recycled buffer holds whatever
// its last user left. It is for a buffer that a transfer then fills whole
// (a DMA pull of exactly len(b) bytes), which would only overwrite zeros.
func (p *Pool) GetUncleared(n int) []byte {
	if n == 0 {
		return nil
	}
	if p == nil {
		return make([]byte, n)
	}
	c := classFor(n)
	if c < 0 {
		p.Misses++
		return make([]byte, n)
	}
	fl := p.classes[c]
	if len(fl) == 0 {
		p.Misses++
		return make([]byte, n, 1<<(minShift+c))
	}
	b := fl[len(fl)-1]
	fl[len(fl)-1] = nil
	p.classes[c] = fl[:len(fl)-1]
	p.Gets++
	return b[:n]
}

// PoisonByte is what a released buffer is filled with under SetPoison.
const PoisonByte = 0xDB

var poison bool

// SetPoison is a test-only switch: while on, Put overwrites every buffer it
// is handed with PoisonByte, so a reference retained past release reads
// garbage and shows up as a data mismatch instead of passing by luck. Set it
// before the simulation starts (TestMain, or a test that runs alone).
func SetPoison(on bool) { poison = on }

// Put returns b to the pool. Buffers whose capacity is not an exact pooled
// class size (or that exceed the per-class cap) are discarded. Callers must
// not use b after Put.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(minShift+c) {
		return
	}
	if poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
	if len(p.classes[c]) >= perClassCap {
		return
	}
	p.classes[c] = append(p.classes[c], b[:0])
	p.Puts++
}
