package check

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dpc/internal/kv"
	"dpc/internal/kvfs"
	"dpc/internal/sim"
	"dpc/internal/wal"
)

// This file is the crash-restart torture harness. It replays a generated
// trace against the WAL-enabled kvfs-cache stack, kills the world at a
// seed-chosen virtual-time instant (including mid-WAL-append, so torn
// records are routinely exercised), extracts exactly the state that would
// survive a power failure — the KV shards, and the WAL device after its
// un-barriered writes are randomly torn — transplants it into a fresh
// machine, runs recovery, and verifies the result against a durability
// model derived from the oracle: everything acknowledged durable (completed
// fsyncs, direct writes, metadata ops) must be intact, and everything else
// must be *some* state the application actually produced — never garbage.
// Failing crash points delta-debug their traces to minimal reproducers.

// crashStack is the row of the stack table under crash torture. Every phase
// builds its world from it identically: the simulation is deterministic, so
// a re-run reaches bit-identical state at any virtual time, which is what
// lets the harness re-execute a run and stop it mid-flight.
var crashStack, _ = stackByName("kvfs-wal")

// opWindow is one op's virtual-time execution window.
type opWindow struct{ start, end sim.Time }

// timeTrace replays trace to completion on a fresh crash system, recording
// each op's window. The driver is sequential, so at most one op is in
// flight at any instant — the single-op relaxation the verifier leans on.
// The crash runs never reach a quiesce point, so this run is the one that
// checks the journal notes after the last op, then settles, writes
// everything back and returns those problems and the world's fsck's.
func timeTrace(trace []Op) ([]opWindow, []string) {
	w := crashStack.world(nil)
	defer w.Stop()
	wins := make([]opWindow, len(trace))
	var probs []string
	w.Drive(func(p *sim.Proc) {
		for i, op := range trace {
			wins[i].start = p.Now()
			w.Apply(p, op)
			wins[i].end = p.Now()
		}
		probs = w.journalLeaks()
		w.Settle(p)
		w.Barrier(p)
		probs = append(probs, w.Fsck()...)
	})
	return wins, probs
}

// crashImage is the durable state a crash leaves behind: the WAL device's
// post-power-failure platter and every KV shard's surviving pairs. Cache
// contents, in-flight requests and all other machine state die with the
// power.
type crashImage struct {
	wal    map[int64][]byte
	shards [][]kv.KV
	lost   int // WAL blocks torn by the power failure
}

// captureCrash re-runs trace on an identical world up to exactly tc, then
// pulls the plug.
func captureCrash(trace []Op, tc sim.Time, rng *rand.Rand) *crashImage {
	w := crashStack.world(nil)
	w.Sys.Go(func(p *sim.Proc) {
		for _, op := range trace {
			w.Apply(p, op)
		}
	})
	return pullPlug(w, tc, rng)
}

// pullPlug runs w up to exactly tc and power-fails it: un-barriered WAL
// writes are independently kept or torn by rng, and the KV shards are dumped
// as-is (a KV put is atomic, but a crash between the puts of one metadata
// op strands any prefix — the scavenger's job). Nothing in the extraction
// consumes virtual time.
func pullPlug(w *World, tc sim.Time, rng *rand.Rand) *crashImage {
	sys := w.Sys
	sys.RunUntil(tc)
	img := &crashImage{}
	img.lost = sys.WALDev.Crash(rng)
	img.wal = sys.WALDev.Snapshot()
	for i := 0; i < sys.KVCluster.Shards(); i++ {
		dump := sys.KVCluster.StoreOf(i).Scan("", 0)
		cp := make([]kv.KV, len(dump))
		for j, kvp := range dump {
			cp[j] = kv.KV{Key: kvp.Key, Val: append([]byte(nil), kvp.Val...)}
		}
		img.shards = append(img.shards, cp)
	}
	sys.Shutdown()
	return img
}

// transplant builds a fresh world holding a crash image's durable state.
func transplant(img *crashImage) *World {
	w := crashStack.world(nil)
	sys := w.Sys
	sys.WALDev.Restore(img.wal)
	sys.WAL.Reopen()
	for i, shard := range img.shards {
		st := sys.KVCluster.StoreOf(i)
		for _, kvp := range shard {
			st.Put([]byte(kvp.Key), append([]byte(nil), kvp.Val...))
		}
	}
	return w
}

// crashRecovery runs the recovery of img in a fresh world and power-fails it
// at t2, as pullPlug does.
func crashRecovery(img *crashImage, t2 sim.Time, rng *rand.Rand) *crashImage {
	w := transplant(img)
	w.Sys.Go(func(p *sim.Proc) { w.Sys.Recover(p) })
	return pullPlug(w, t2, rng)
}

// recoverAndVerify transplants a crash image into a fresh world, runs the
// production recovery sequence (scavenge, WAL replay, checkpoint) to
// completion and verifies the result against the durability model m, with
// inflight the op in flight at the first crash. It returns the violation
// ("" if none), the recovery's telemetry and the virtual-time window
// System.Recover took.
func recoverAndVerify(img *crashImage, m *durableModel, inflight *Op) (string, crashRunStats, opWindow) {
	w := transplant(img)
	defer w.Stop()
	st := crashRunStats{lost: img.lost}
	var (
		win  opWindow
		rerr error
	)
	w.Drive(func(p *sim.Proc) {
		win.start = p.Now()
		st.replay, st.report, rerr = w.Sys.Recover(p)
		win.end = p.Now()
	})
	if rerr != nil {
		return fmt.Sprintf("recovery error: %v", rerr), st, win
	}
	var diff string
	w.Drive(func(p *sim.Proc) { diff = verifyRecovered(p, w, m, inflight) })
	return diff, st, win
}

// CrashPoint pins a crash instant to a trace op: the crash fires Frac of
// the way through the op's measured virtual-time window. Anchoring to an op
// index — not an absolute time — keeps the point meaningful under trace
// shrinking, where removing ops shifts every timestamp.
type CrashPoint struct {
	Anchor int     // Op.Idx of the anchor op
	Frac   float64 // position in (0,1) inside the anchor's window
}

// pickCrashPoints chooses n crash points, biased toward fsync windows
// (where WAL group commits are in flight, so torn records are routinely
// produced) and metadata windows (where multi-KV ops tear).
func pickCrashPoints(rng *rand.Rand, trace []Op, n int) []CrashPoint {
	var fsyncs, meta []int
	for i, op := range trace {
		switch op.Kind {
		case OpFsync:
			fsyncs = append(fsyncs, i)
		case OpCreate, OpTruncate, OpUnlink, OpRename:
			meta = append(meta, i)
		}
	}
	pts := make([]CrashPoint, 0, n)
	for len(pts) < n {
		var i int
		frac := 0.02 + 0.96*rng.Float64()
		switch pick := rng.Intn(10); {
		case pick < 4 && len(fsyncs) > 0:
			i = fsyncs[rng.Intn(len(fsyncs))]
			// The group-commit write+barrier sits at the tail of the fsync
			// window (after the group window elapses), so late fracs are the
			// ones that can land mid-append and tear the record. Bias there.
			if rng.Intn(2) == 0 {
				frac = 0.75 + 0.24*rng.Float64()
			}
		case pick < 6 && len(meta) > 0:
			i = meta[rng.Intn(len(meta))]
		default:
			i = rng.Intn(len(trace))
		}
		pts = append(pts, CrashPoint{Anchor: trace[i].Idx, Frac: frac})
	}
	return pts
}

// CrashFailure describes a crash-consistency violation: state after
// recovery that contradicts what the stack acknowledged before the crash.
type CrashFailure struct {
	Seed   int64
	Point  CrashPoint
	When   sim.Time // absolute crash instant in the (current) trace's run
	Diff   string
	Trace  []Op
	Replay wal.ReplayStats
}

func (f *CrashFailure) Error() string {
	return fmt.Sprintf("crash seed=%d anchor=#%d frac=%.2f t=%v: %s",
		f.Seed, f.Point.Anchor, f.Point.Frac, time.Duration(f.When), f.Diff)
}

// crashRunStats aggregates one crash point's recovery telemetry, and in
// recrash that of its second power failure, inside the recovery.
type crashRunStats struct {
	replay  wal.ReplayStats
	report  *kvfs.RecoverReport
	lost    int
	recrash *crashRunStats
}

func indexOfIdx(trace []Op, idx int) int {
	for i, op := range trace {
		if op.Idx == idx {
			return i
		}
	}
	return -1
}

// crashRNG derives the deterministic tear-pattern PRNG for one (seed,
// point) pair, so a re-run of the same crash point tears the same blocks.
func crashRNG(seed int64, pt CrashPoint) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(pt.Anchor)*8191 + int64(pt.Frac*1e6)))
}

// runCrashPoint executes one full crash cycle — re-run to the crash
// instant, power failure, transplant, recovery, verification — then power-
// fails a second run of that recovery at a seed-chosen instant inside
// System.Recover (scavenge, replay or checkpoint), tearing the WAL the same
// way, and recovers and verifies that image against the same promises. It
// returns a failure (nil if both recovered states honor every durability
// promise) plus the runs' recovery telemetry.
func runCrashPoint(seed int64, trace []Op, wins []opWindow, pt CrashPoint) (*CrashFailure, crashRunStats) {
	idx := indexOfIdx(trace, pt.Anchor)
	if idx < 0 {
		return nil, crashRunStats{}
	}
	win := wins[idx]
	tc := win.start + sim.Time(pt.Frac*float64(win.end-win.start))

	// Rebuild the durability model from the ops that completed before the
	// crash, and identify the (at most one) op in flight at tc. Only
	// mutating ops earn the relaxed treatment: an interrupted read, stat,
	// readdir or fsync changes nothing durable, so the strict contract
	// still applies to its paths.
	m := newDurableModel()
	var inflight *Op
	for i := range trace {
		if wins[i].end <= tc {
			m.apply(trace[i])
			continue
		}
		if wins[i].start <= tc {
			switch trace[i].Kind {
			case OpWrite, OpCreate, OpMkdir, OpTruncate, OpUnlink, OpRename:
				op := trace[i]
				inflight = &op
			}
		}
		break
	}
	fail := func(diff string, replay wal.ReplayStats) *CrashFailure {
		return &CrashFailure{Seed: seed, Point: pt, When: tc, Diff: diff, Trace: trace, Replay: replay}
	}

	img := captureCrash(trace, tc, crashRNG(seed, pt))
	diff, st, rwin := recoverAndVerify(img, m, inflight)
	if diff != "" {
		return fail(diff, st.replay), st
	}

	rng := rand.New(rand.NewSource(crashRNG(seed, pt).Int63())) // places and tears the second crash
	t2 := rwin.start + sim.Time(rng.Float64()*float64(rwin.end-rwin.start))
	diff, second, _ := recoverAndVerify(crashRecovery(img, t2, rng), m, inflight)
	st.recrash = &second
	if diff != "" {
		return fail(fmt.Sprintf("after a second crash %v into recovery: %s", time.Duration(t2-rwin.start), diff), second.replay), st
	}
	return nil, st
}

// ShrinkCrash reduces a failing crash run to a (locally) minimal trace by
// delta-debugging, keeping the anchor op pinned: ops after the anchor never
// execute before the crash and are dropped outright; earlier ops are
// removed in shrinking chunks, re-timing the survivor trace each round so
// the crash instant tracks the anchor's new window. budget bounds replays.
func ShrinkCrash(fail *CrashFailure, budget int) *CrashFailure {
	best := fail
	// The replay below returns no error, so neither does ddmin.
	trace, _ := ddmin(fail.Trace, indexOfIdx(fail.Trace, fail.Point.Anchor)+1, budget,
		func(cand []Op) ([]Op, bool) {
			cand = sanitize(cand, crashStack.caps)
			return cand, indexOfIdx(cand, fail.Point.Anchor) >= 0
		},
		func(cand []Op) (int, error) {
			wins, _ := timeTrace(cand)
			f, _ := runCrashPoint(fail.Seed, cand, wins, fail.Point)
			if f == nil {
				return 0, nil
			}
			best = f
			return len(cand), nil
		})
	best.Trace = trace
	return best
}

// CrashSuiteConfig parameterizes a crash-restart torture sweep.
type CrashSuiteConfig struct {
	Seeds    []int64
	Ops      int  // trace length per seed (default 160)
	Points   int  // crash points per seed (default 6)
	Shrink   bool // delta-debug failures before reporting (crashShrinkBudget replays)
	Parallel int  // concurrent seeds; 0 = GOMAXPROCS
	Logf     func(format string, args ...any)
}

// crashShrinkBudget bounds the replays one ShrinkCrash of a sweep failure may
// spend.
const crashShrinkBudget = 100

// CrashReport aggregates a sweep's recovery telemetry.
type CrashReport struct {
	Runs          int           // crash points executed
	TornTails     int           // WAL torn tails detected across recoveries
	Replayed      int           // page records replayed
	SkippedStale  int           // stale-generation records skipped
	LostWALBlocks int           // WAL blocks torn by the power failures
	Scavenged     int           // files repaired + orphans removed
	MaxRecovery   time.Duration // slowest recovery (virtual time)

	// Recrash holds the same figures for the second power failures, each
	// inside the recovery from a crash point's first.
	Recrash *CrashReport
}

func (r *CrashReport) add(st crashRunStats) {
	r.Runs++
	r.TornTails += st.replay.TornTails
	r.Replayed += st.replay.Replayed
	r.SkippedStale += st.replay.SkippedStale
	r.LostWALBlocks += st.lost
	if st.report != nil {
		r.Scavenged += st.report.RepairedFiles + st.report.OrphanAttrs +
			st.report.DanglingDentries + st.report.DupDentries
	}
	r.MaxRecovery = max(r.MaxRecovery, st.replay.Duration)
}

// RunCrashSuite runs the crash-restart torture: per seed, one timing run,
// then Points crash cycles at seed-chosen instants. Returns every
// durability violation found (shrunk if configured), the aggregate
// recovery report, and an error naming each seed whose timing run ended
// with fsck problems.
func RunCrashSuite(cfg CrashSuiteConfig) ([]*CrashFailure, *CrashReport, error) {
	ops := cfg.Ops
	if ops <= 0 {
		ops = 160
	}
	points := cfg.Points
	if points <= 0 {
		points = 6
	}

	var (
		mu       sync.Mutex
		failures []*CrashFailure
		report   = CrashReport{Recrash: &CrashReport{}}
		fsckErrs []error
	)
	pool(len(cfg.Seeds), cfg.Parallel, cfg.Logf, func(i int, logf func(string, ...any)) {
		seed := cfg.Seeds[i]
		trace := GenTrace(seed, ops, crashStack.caps)
		wins, probs := timeTrace(trace)
		if len(probs) > 0 {
			mu.Lock()
			fsckErrs = append(fsckErrs, fmt.Errorf("crash seed %d: fsck after the timing run: %s", seed, strings.Join(probs, "; ")))
			mu.Unlock()
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		for _, pt := range pickCrashPoints(rng, trace, points) {
			fail, st := runCrashPoint(seed, trace, wins, pt)
			mu.Lock()
			report.add(st)
			if st.recrash != nil {
				report.Recrash.add(*st.recrash)
			}
			mu.Unlock()
			if fail == nil {
				logf("ok   crash seed=%-4d anchor=#%-3d frac=%.2f (replayed=%d torn=%d stale=%d)",
					seed, pt.Anchor, pt.Frac, st.replay.Replayed, st.replay.TornTails, st.replay.SkippedStale)
				continue
			}
			logf("FAIL crash seed=%d anchor=#%d: %s", seed, pt.Anchor, fail.Diff)
			if cfg.Shrink {
				shrunk := ShrinkCrash(fail, crashShrinkBudget)
				logf("shrunk crash seed=%d anchor=#%d to %d ops", seed, pt.Anchor, len(shrunk.Trace))
				fail = shrunk
			}
			mu.Lock()
			failures = append(failures, fail)
			mu.Unlock()
		}
	})
	return failures, &report, errors.Join(fsckErrs...)
}
