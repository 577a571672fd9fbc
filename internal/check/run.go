package check

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"dpc/internal/sim"
)

// verifyEvery is the op interval between full-tree verifies: the executor
// settles (lets the flush daemon run) and re-checks every live file's size,
// full content in each supported I/O mode, and every directory listing.
const verifyEvery = 96

// Failure describes a divergence between a stack and the oracle.
type Failure struct {
	Stack  string
	Seed   int64
	OpIdx  int // index into Trace of the failing op; len(Trace) = end-phase
	Diff   string
	Trace  []Op
	Faults bool // reproduce with NewFaultWorld(Stack, Seed), not NewWorld
}

func (f *Failure) Error() string {
	where := "end-of-trace check"
	if f.OpIdx < len(f.Trace) {
		where = f.Trace[f.OpIdx].String()
	}
	return fmt.Sprintf("%s seed=%d: %s: %s", f.Stack, f.Seed, where, f.Diff)
}

// runTraceOn replays a trace against w, diffing every operation against the
// oracle. It returns nil if the stack agrees with the oracle throughout,
// including the final settle + barrier + full verify + fsck.
func runTraceOn(w *World, seed int64, trace []Op) *Failure {
	var fail *Failure
	w.Drive(func(p *sim.Proc) {
		o := NewOracle()
		for i, op := range trace {
			want := o.Apply(op)
			got := w.Apply(p, op)
			if d := Diff(op, got, want); d != "" {
				fail = &Failure{Stack: w.Name, Seed: seed, OpIdx: i, Diff: d, Trace: trace}
				return
			}
			if (i+1)%verifyEvery == 0 {
				w.Settle(p)
				if d := verifyTree(p, w, o); d != "" {
					fail = &Failure{Stack: w.Name, Seed: seed, OpIdx: i, Diff: "periodic verify: " + d, Trace: trace}
					return
				}
			}
		}
		if probs := w.journalLeaks(); len(probs) > 0 {
			fail = &Failure{Stack: w.Name, Seed: seed, OpIdx: len(trace),
				Diff: "after the last op: " + strings.Join(probs, "; "), Trace: trace}
			return
		}
		// Stop injecting before the final settle/verify: the oracle judges
		// the stack's *recovered* state — everything retried, flushed and
		// readable once faults cease — not its behavior mid-outage.
		w.Disarm()
		w.Settle(p)
		w.Barrier(p)
		if d := verifyTree(p, w, o); d != "" {
			fail = &Failure{Stack: w.Name, Seed: seed, OpIdx: len(trace), Diff: "final verify: " + d, Trace: trace}
			return
		}
		if probs := w.Fsck(p); len(probs) > 0 {
			fail = &Failure{Stack: w.Name, Seed: seed, OpIdx: len(trace),
				Diff: "fsck: " + strings.Join(probs, "; "), Trace: trace}
		}
	})
	return fail
}

// verifyTree re-checks the whole namespace against the oracle: every file's
// stat size and full content (in each I/O mode the stack supports), every
// directory listing. Synthetic ops (Idx -1) label the diffs.
func verifyTree(p *sim.Proc, w *World, o *Oracle) string {
	caps := w.Caps
	for _, path := range o.LiveFiles() {
		size, _ := o.SizeOf(path)
		content, _ := o.ContentOf(path)

		statOp := Op{Idx: -1, Kind: OpStat, Path: path}
		if d := Diff(statOp, w.Apply(p, statOp), Result{Size: size}); d != "" {
			return d
		}
		if size == 0 {
			continue
		}
		modes := []bool{}
		if caps.Buffered {
			modes = append(modes, false)
		}
		if caps.Direct {
			modes = append(modes, true)
		}
		for _, direct := range modes {
			readOp := Op{Idx: -1, Kind: OpRead, Path: path, Off: 0, Len: int(size), Direct: direct}
			if d := Diff(readOp, w.Apply(p, readOp), Result{Data: content}); d != "" {
				return d
			}
		}
	}
	if caps.Mkdir {
		for _, dir := range o.LiveDirs() {
			lsOp := Op{Idx: -1, Kind: OpReaddir, Path: dir}
			if d := Diff(lsOp, w.Apply(p, lsOp), Result{Names: o.list(dir)}); d != "" {
				return d
			}
		}
	}
	return ""
}

// Shrink reduces a failing trace to a (locally) minimal reproducer: first
// truncate to the failing prefix, then delta-debug by removing chunks of
// shrinking size, accepting any candidate that still fails (not necessarily
// with the identical diff — any divergence is a reproducer). budget bounds
// the number of replays.
func Shrink(fail *Failure, budget int) (*Failure, error) {
	// Fault schedules are a pure function of (stack, seed), so the shrunk
	// trace replays under the exact same injected faults.
	factory := func() (*World, error) { return newSuiteWorld(fail.Stack, fail.Seed, fail.Faults) }
	return shrinkWith(factory, fail, budget)
}

// newSuiteWorld is the world a (stack, seed) pair of a suite runs on.
func newSuiteWorld(stack string, seed int64, faults bool) (*World, error) {
	if faults {
		return NewFaultWorld(stack, seed)
	}
	return NewWorld(stack)
}

// sanitize drops ops that fall outside the stack's capability envelope
// after other ops were removed — chiefly writes that would now start past
// EOF on a stack without sparse-file support. Shrunk traces must stay
// traces the generator could have produced, or the "minimal reproducer"
// exercises unsupported behavior instead of the original bug.
func sanitize(trace []Op, caps Caps) []Op {
	if caps.Holes {
		return trace
	}
	o := NewOracle()
	out := trace[:0:0]
	for _, op := range trace {
		if op.Kind == OpWrite {
			if size, ok := o.SizeOf(op.Path); ok && op.Off > size {
				continue
			}
		}
		o.Apply(op)
		out = append(out, op)
	}
	return out
}

// shrinkWith is Shrink with an explicit world factory, so callers (and the
// harness's own tests) can shrink against instrumented worlds of the failed
// stack's row — e.g. one with the legacy flush bug injected.
func shrinkWith(factory func() (*World, error), fail *Failure, budget int) (*Failure, error) {
	row, _ := stackByName(fail.Stack)
	best := fail
	trace, err := ddmin(fail.Trace, fail.OpIdx+1, budget,
		func(cand []Op) ([]Op, bool) { return sanitize(cand, row.caps), true },
		func(cand []Op) (int, error) {
			w, err := factory()
			if err != nil {
				return 0, err
			}
			defer w.Stop()
			f := runTraceOn(w, fail.Seed, cand)
			if f == nil {
				return 0, nil
			}
			best = f
			return f.OpIdx + 1, nil
		})
	if err != nil {
		return nil, err
	}
	best.Trace = trace
	return best, nil
}

// ddmin delta-debugs a failing trace to a locally minimal one that still
// fails. It first replays the trace cut to its first keep ops (the failure
// should not need later ones), then removes chunks of halving size, adopting
// every candidate that still fails, not necessarily with the same diff, until
// budget replays are spent. fit makes a candidate one the generator could
// have produced, or rejects it unreplayed; replay runs one and returns how
// many of its ops the failure needs (0: it passed), and an adopted candidate
// is cut there.
func ddmin(trace []Op, keep, budget int, fit func([]Op) ([]Op, bool), replay func([]Op) (int, error)) ([]Op, error) {
	runs := 0
	fails := func(cand []Op) (bool, error) {
		runs++
		n, err := replay(cand)
		if err != nil || n == 0 {
			return false, err
		}
		trace = cand[:min(n, len(cand))]
		return true, nil
	}
	head := trace
	if keep > 0 && keep < len(trace) {
		head = trace[:keep]
	}
	// A head that passes leaves the trace whole: the failure only shows with
	// the later ops or in the end-phase checks.
	if _, err := fails(head); err != nil {
		return nil, err
	}
	for chunk := len(trace) / 2; chunk > 0 && runs < budget; {
		removed := false
		for start := 0; start+chunk <= len(trace) && runs < budget; {
			cand := make([]Op, 0, len(trace)-chunk)
			cand = append(cand, trace[:start]...)
			cand = append(cand, trace[start+chunk:]...)
			failed := false
			if cand, ok := fit(cand); ok {
				var err error
				if failed, err = fails(cand); err != nil {
					return nil, err
				}
			}
			if failed {
				removed = true
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		}
	}
	return trace, nil
}

// SuiteConfig parameterizes a torture run.
type SuiteConfig struct {
	Stacks   []string // nil = all stacks
	Seeds    []int64
	Ops      int  // trace length per (stack, seed)
	Faults   bool // run under the deterministic per-seed fault schedule
	Shrink   bool // delta-debug failures before reporting (shrinkBudget replays)
	Parallel int  // concurrent worlds; 0 = GOMAXPROCS
	Logf     func(format string, args ...any)
}

// shrinkBudget bounds the replays one Shrink of a suite failure may spend.
const shrinkBudget = 200

// StackList is the stacks the suite runs: cfg.Stacks, or every stack its
// mode supports.
func (cfg SuiteConfig) StackList() []string {
	if len(cfg.Stacks) > 0 {
		return cfg.Stacks
	}
	if cfg.Faults {
		return FaultStackNames()
	}
	return StackNames()
}

// RunSuite tortures every (stack, seed) pair and returns the failures. Each
// world is an independent simulation, so pairs run on real goroutines in
// parallel.
func RunSuite(cfg SuiteConfig) ([]*Failure, error) {
	type job struct {
		stack string
		seed  int64
	}
	var jobs []job
	for _, s := range cfg.StackList() {
		for _, seed := range cfg.Seeds {
			jobs = append(jobs, job{s, seed})
		}
	}

	var (
		mu       sync.Mutex
		failures []*Failure
		firstErr error
	)
	pool(len(jobs), cfg.Parallel, cfg.Logf, func(i int, logf func(string, ...any)) {
		j := jobs[i]
		w, err := newSuiteWorld(j.stack, j.seed, cfg.Faults)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		trace := GenTrace(j.seed, cfg.Ops, w.Caps)
		fail := runTraceOn(w, j.seed, trace)
		w.Stop()
		if fail == nil {
			logf("ok   %-11s seed=%-4d (%d ops)", j.stack, j.seed, len(trace))
			return
		}
		fail.Faults = cfg.Faults
		logf("FAIL %-11s seed=%-4d: %s", j.stack, j.seed, fail.Diff)
		if cfg.Shrink {
			if shrunk, err := Shrink(fail, shrinkBudget); err == nil && shrunk != nil {
				logf("shrunk %s seed=%d to %d ops", j.stack, j.seed, len(shrunk.Trace))
				fail = shrunk
			}
		}
		mu.Lock()
		failures = append(failures, fail)
		mu.Unlock()
	})
	return failures, firstErr
}

// pool runs job(0) … job(n-1) on at most par goroutines at once (GOMAXPROCS
// when par <= 0) and returns once all have finished. Each job logs through
// logf, a no-op when nil.
func pool(n, par int, logf func(string, ...any), job func(i int, logf func(string, ...any))) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			job(i, logf)
		}()
	}
	wg.Wait()
}
