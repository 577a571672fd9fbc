package check

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"dpc/internal/bufpool"
	"dpc/internal/kvfs"
	"dpc/internal/sim"
)

// TestMain runs every torture in this package (differential, fault, crash)
// with released pool buffers poisoned, so a request or page buffer retained
// past its release is a data mismatch the oracle catches.
func TestMain(m *testing.M) {
	bufpool.SetPoison(true)
	os.Exit(m.Run())
}

// TestGenTraceDeterministic: the same (seed, n, caps) must yield the same
// trace — reproducibility is the harness's whole value proposition.
func TestGenTraceDeterministic(t *testing.T) {
	caps := Caps{Buffered: true, Direct: true, Mkdir: true, Unlink: true,
		Rename: true, Truncate: true, Fsync: true, MaxFile: 96 * 1024}
	a := GenTrace(42, 500, caps)
	b := GenTrace(42, 500, caps)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenTrace is not deterministic for identical inputs")
	}
	c := GenTrace(43, 500, caps)
	if reflect.DeepEqual(a, c) {
		t.Fatal("GenTrace ignores the seed")
	}
}

// TestGenTraceRespectsCaps: a capability-masked generator must not emit
// operations the stack cannot execute, and must honor alignment.
func TestGenTraceRespectsCaps(t *testing.T) {
	caps := Caps{Direct: true, Align: 8192, MaxFile: 64 * 1024}
	for _, op := range GenTrace(7, 1000, caps) {
		switch op.Kind {
		case OpMkdir, OpUnlink, OpRename, OpTruncate, OpFsync, OpReaddir:
			t.Fatalf("generated %s despite caps forbidding it", op)
		case OpWrite, OpRead:
			if !op.Direct {
				t.Fatalf("%s: buffered I/O without the Buffered cap", op)
			}
			if op.Off%8192 != 0 || op.Len%8192 != 0 {
				t.Fatalf("%s: violates 8192-byte alignment", op)
			}
		}
	}
}

// TestOracleBasics spot-checks the reference semantics the stacks are
// diffed against.
func TestOracleBasics(t *testing.T) {
	o := NewOracle()
	if r := o.Apply(Op{Kind: OpCreate, Path: "/f0"}); r.Err != ErrNone {
		t.Fatalf("create: %v", r.Err)
	}
	if r := o.Apply(Op{Kind: OpCreate, Path: "/f0"}); r.Err != ErrExists {
		t.Fatalf("re-create: got %v, want exists", r.Err)
	}
	if r := o.Apply(Op{Idx: 1, Kind: OpWrite, Path: "/f0", Off: 4, Len: 8}); r.Err != ErrNone {
		t.Fatalf("write: %v", r.Err)
	}
	// Bytes 0..3 are a hole (zero fill); 4..11 follow the pattern.
	r := o.Apply(Op{Kind: OpRead, Path: "/f0", Off: 0, Len: 100})
	want := append(make([]byte, 4), Pattern(1, 4, 8)...)
	if string(r.Data) != string(want) {
		t.Fatalf("read: got %v, want %v", r.Data, want)
	}
	if r := o.Apply(Op{Kind: OpStat, Path: "/f0"}); r.Size != 12 {
		t.Fatalf("stat: size %d, want 12", r.Size)
	}
	if r := o.Apply(Op{Kind: OpRename, Path: "/f0", Path2: "/f1"}); r.Err != ErrNone {
		t.Fatalf("rename: %v", r.Err)
	}
	if r := o.Apply(Op{Kind: OpStat, Path: "/f0"}); r.Err != ErrNotFound {
		t.Fatalf("stat after rename: %v", r.Err)
	}
	if r := o.Apply(Op{Kind: OpReaddir}); strings.Join(r.Names, ",") != "f1" {
		t.Fatalf("readdir: %v", r.Names)
	}
}

// TestShortTortureAllStacks drives a short randomized trace through every
// stack. This is the harness's own smoke test; `make check` runs the longer
// version via cmd/dpccheck.
func TestShortTortureAllStacks(t *testing.T) {
	for _, stack := range StackNames() {
		stack := stack
		t.Run(stack, func(t *testing.T) {
			t.Parallel()
			w, err := NewWorld(stack)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
			trace := GenTrace(1, 300, w.Caps)
			if fail := runTraceOn(w, 1, trace); fail != nil {
				t.Fatalf("diverged from oracle: %v", fail)
			}
		})
	}
}

// legacyFlushBackend reproduces the pre-fix cache write-back: whole pages go
// to the backend with no knowledge of the file's true EOF, so flushing the
// tail page of a 10 000-byte file inflates it to the next page boundary.
type legacyFlushBackend struct {
	kvfs.PageBackend
}

func (b legacyFlushBackend) WritePage(p *sim.Proc, ino, lpn uint64, pageSize int, data []byte) error {
	return b.FS.Write(p, ino, lpn*uint64(pageSize), data)
}

// legacyFlushWorld is a kvfs-cache world with legacyFlushBackend under its
// live hybrid cache.
func legacyFlushWorld() *World {
	w, _ := NewWorld("kvfs-cache")
	w.Ctl.SetBackend(legacyFlushBackend{kvfs.PageBackend{FS: w.Sys.KVFS}})
	return w
}

// TestHarnessCatchesLegacyFlushSizeBug reinstates the pre-fix cache
// write-back (whole pages flushed with no EOF clamp) under a live
// kvfs-cache world and proves the harness detects the size inflation. This
// is the regression tripwire for the tentpole fix: if someone reintroduces
// an EOF-blind backend write path, this trace diverges on stat.
func TestHarnessCatchesLegacyFlushSizeBug(t *testing.T) {
	trace := []Op{
		{Idx: 0, Kind: OpCreate, Path: "/f0"},
		{Idx: 1, Kind: OpWrite, Path: "/f0", Off: 0, Len: 10000}, // buffered, non-page-aligned
		{Idx: 2, Kind: OpFsync, Path: "/f0"},
		{Idx: 3, Kind: OpStat, Path: "/f0"},
	}

	// Sanity: the fixed stack passes this exact trace.
	w, err := NewWorld("kvfs-cache")
	if err != nil {
		t.Fatal(err)
	}
	if fail := runTraceOn(w, 0, trace); fail != nil {
		t.Fatalf("fixed stack fails the probe trace: %v", fail)
	}
	w.Stop()

	// Sabotaged stack: the harness must catch it.
	w = legacyFlushWorld()
	defer w.Stop()
	fail := runTraceOn(w, 0, trace)
	if fail == nil {
		t.Fatal("harness did not catch the legacy unclamped flush (size inflation past EOF)")
	}
	if !strings.Contains(fail.Diff, "size") {
		t.Fatalf("expected a size divergence, got: %v", fail)
	}
}

// TestShrinkMinimizes: a failure buried in a long random trace must shrink
// to a handful of ops. The legacy flush bug is the reproducible failure
// source; the shrinker replays candidates through sabotaged worlds.
func TestShrinkMinimizes(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking replays many worlds")
	}
	sabotaged := func() (*World, error) { return legacyFlushWorld(), nil }

	w := legacyFlushWorld()
	// Random padding followed by the probe ops that trigger the bug; the
	// padding itself may (and usually does) trip divergence even earlier.
	trace := GenTrace(5, 120, w.Caps)
	next := len(trace) * 2 // Idx values past anything in the padding
	trace = append(trace,
		Op{Idx: next, Kind: OpCreate, Path: "/zz0"},
		Op{Idx: next + 1, Kind: OpWrite, Path: "/zz0", Off: 0, Len: 10000},
		Op{Idx: next + 2, Kind: OpFsync, Path: "/zz0"},
		Op{Idx: next + 3, Kind: OpStat, Path: "/zz0"},
	)
	fail := runTraceOn(w, 5, trace)
	w.Stop()
	if fail == nil {
		t.Fatal("sabotaged world did not diverge")
	}

	shrunk, err := shrinkWith(sabotaged, fail, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Trace) > 15 {
		t.Fatalf("shrink left %d of %d ops", len(shrunk.Trace), len(trace))
	}
	// The shrunk trace must still reproduce on a fresh sabotaged world.
	w = legacyFlushWorld()
	defer w.Stop()
	if runTraceOn(w, 5, shrunk.Trace) == nil {
		t.Fatal("shrunk trace does not reproduce the failure")
	}
}

// TestDdminKeepsWhatTheFailureNeeds runs the shared shrink loop on a
// synthetic failure that needs ops #7 and #23, with #23 pinned the way the
// crash shrinker pins its anchor: it must end at exactly those two, never
// replay a candidate fit rejects, and cut each adopted candidate at its
// failing op.
func TestDdminKeepsWhatTheFailureNeeds(t *testing.T) {
	var trace []Op
	for i := range 40 {
		trace = append(trace, Op{Idx: i})
	}
	has := func(cand []Op, idx int) bool { return indexOfIdx(cand, idx) >= 0 }
	replays := 0
	got, err := ddmin(trace, 30, 200,
		func(cand []Op) ([]Op, bool) { return cand, has(cand, 23) },
		func(cand []Op) (int, error) {
			if replays++; replays > 1 && cand[len(cand)-1].Idx > 23 {
				t.Fatalf("replay %d kept ops past the failing one: %v", replays, cand)
			}
			if !has(cand, 23) {
				t.Fatalf("replayed a candidate without the pinned op: %v", cand)
			}
			if !has(cand, 7) {
				return 0, nil
			}
			return indexOfIdx(cand, 23) + 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Idx != 7 || got[1].Idx != 23 {
		t.Fatalf("shrunk to %v, want ops #7 and #23", got)
	}
}

// TestShortTortureWithFaults runs the differential oracle against every
// fault-capable stack under the per-seed deterministic fault schedule.
// The robustness contract: every op succeeds with correct bytes or fails
// cleanly — injected drops, corruption, crashes and backend errors must
// never surface as wrong data or a wedged stack.
func TestShortTortureWithFaults(t *testing.T) {
	for _, stack := range FaultStackNames() {
		stack := stack
		t.Run(stack, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2} {
				w, err := NewFaultWorld(stack, seed)
				if err != nil {
					t.Fatal(err)
				}
				trace := GenTrace(seed, 300, w.Caps)
				fail := runTraceOn(w, seed, trace)
				w.Stop()
				if fail != nil {
					t.Fatalf("seed %d diverged under injection: %v", seed, fail)
				}
			}
		})
	}
}

// TestFaultWorldRejectsBaselines: stacks without injector hooks must refuse
// fault construction rather than silently running fault-free.
func TestFaultWorldRejectsBaselines(t *testing.T) {
	if _, err := NewFaultWorld("localfs", 1); err == nil {
		t.Fatal("localfs accepted a fault schedule it cannot inject")
	}
}

// TestInlineBoundarySizesDifferential drives handcrafted writes and reads
// whose payload sizes bracket every interesting inline boundary — 0-adjacent,
// the 64-byte header unit, the write cutover and one byte either side of it
// (389 B on the default link, see nvmefs.WriteCutover), InlineMax itself and
// one byte past it, plus a small write straddling a page boundary — through
// the inline-enabled stack and checks every op against the oracle.
// Each size runs in both I/O modes: direct exercises the SQE-inline and
// enlarged-CQE paths, buffered the write-through and fill paths.
func TestInlineBoundarySizesDifferential(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 256, 388, 389, 390, 511, 512, 513, 1024}
	var trace []Op
	idx := 0
	add := func(op Op) {
		op.Idx = idx
		idx++
		trace = append(trace, op)
	}
	add(Op{Kind: OpCreate, Path: "/f0"})
	for _, direct := range []bool{true, false} {
		for _, n := range sizes {
			add(Op{Kind: OpWrite, Path: "/f0", Off: 0, Len: n, Direct: direct})
			add(Op{Kind: OpRead, Path: "/f0", Off: 0, Len: n + 64, Direct: direct})
		}
		// Page-crossing small writes: a sub-cutover payload that straddles
		// the 4 KiB page boundary, then one that straddles it unaligned.
		add(Op{Kind: OpWrite, Path: "/f0", Off: 4090, Len: 12, Direct: direct})
		add(Op{Kind: OpRead, Path: "/f0", Off: 4080, Len: 40, Direct: direct})
		add(Op{Kind: OpWrite, Path: "/f0", Off: 8191, Len: 2, Direct: direct})
		add(Op{Kind: OpRead, Path: "/f0", Off: 8180, Len: 30, Direct: direct})
	}
	w, err := NewWorld("kvfs-inline")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if fail := runTraceOn(w, 0, trace); fail != nil {
		t.Fatalf("inline stack diverged from oracle: %v", fail)
	}
}

// TestInlineTortureMatchesDMATorture: the same seed drives the same random
// trace through kvfs-cache (DMA only) and kvfs-inline; both must match the
// oracle — the inline fast path is a transport optimization with no
// observable semantics.
func TestInlineTortureMatchesDMATorture(t *testing.T) {
	for _, stack := range []string{"kvfs-cache", "kvfs-inline"} {
		w, err := NewWorld(stack)
		if err != nil {
			t.Fatal(err)
		}
		trace := GenTrace(7, 300, w.Caps)
		if fail := runTraceOn(w, 7, trace); fail != nil {
			t.Fatalf("%s diverged: %v", stack, fail)
		}
		w.Stop()
	}
}
