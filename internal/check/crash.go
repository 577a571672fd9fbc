package check

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"dpc"
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
// builds its system from it identically: the simulation is deterministic, so
// a re-run reaches bit-identical state at any virtual time, which is what
// lets the harness re-execute a run and stop it mid-flight.
var crashStack, _ = stackByName("kvfs-wal")

// opWindow is one op's virtual-time execution window.
type opWindow struct{ start, end sim.Time }

// timeTrace replays trace to completion on a fresh crash system, recording
// each op's window. The driver is sequential, so at most one op is in
// flight at any instant — the single-op relaxation the verifier leans on.
func timeTrace(trace []Op) []opWindow {
	sys := crashStack.system(nil, nil)
	defer func() { sys.StopDaemons(); sys.Shutdown() }()
	cl := sys.KVFSClient()
	wins := make([]opWindow, len(trace))
	sys.Drive(func(p *sim.Proc) {
		for i, op := range trace {
			wins[i].start = p.Now()
			applyDPC(p, cl, op)
			wins[i].end = p.Now()
		}
	})
	return wins
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
// pulls the plug: un-barriered WAL writes are independently kept or torn by
// rng, and the KV shards are dumped as-is (a KV put is atomic, but a crash
// between the puts of one metadata op strands any prefix — the scavenger's
// job). Nothing in the extraction consumes virtual time.
func captureCrash(trace []Op, tc sim.Time, rng *rand.Rand) *crashImage {
	sys := crashStack.system(nil, nil)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		for _, op := range trace {
			applyDPC(p, cl, op)
		}
	})
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

// recoverImage transplants a crash image into a fresh machine and runs the
// production recovery sequence (scavenge, WAL replay, checkpoint).
func recoverImage(img *crashImage) (*dpc.System, wal.ReplayStats, *kvfs.RecoverReport, error) {
	sys := crashStack.system(nil, nil)
	sys.WALDev.Restore(img.wal)
	sys.WAL.Reopen()
	for i, shard := range img.shards {
		st := sys.KVCluster.StoreOf(i)
		for _, kvp := range shard {
			st.Put(kvp.Key, append([]byte(nil), kvp.Val...))
		}
	}
	var (
		stats wal.ReplayStats
		rep   *kvfs.RecoverReport
		rerr  error
	)
	sys.Drive(func(p *sim.Proc) { stats, rep, rerr = sys.Recover(p) })
	return sys, stats, rep, rerr
}

// fileVersion is one point-in-time content snapshot of a file.
type fileVersion struct {
	opIdx int
	data  []byte
}

// durableModel tracks, alongside the plain oracle, every live file's content
// history since its last reset and its durability floor: the most recent
// version the stack acknowledged as crash-proof. Completed fsyncs and direct
// writes raise the floor; creates and truncates reset the history (KVFS
// metadata is write-through, so a completed metadata op is itself durable).
// Buffered writes append versions without raising the floor — a background
// flush may or may not have made them durable, so after a crash any version
// at or above the floor is legitimate.
type durableModel struct {
	o     *Oracle
	hist  map[string][]fileVersion
	floor map[string]int // index into hist
}

func newDurableModel() *durableModel {
	return &durableModel{o: NewOracle(), hist: map[string][]fileVersion{}, floor: map[string]int{}}
}

func (m *durableModel) apply(op Op) {
	if m.o.Apply(op).Err != ErrNone {
		return
	}
	switch op.Kind {
	case OpCreate, OpTruncate:
		m.hist[op.Path] = []fileVersion{{op.Idx, nil}}
		m.floor[op.Path] = 0
	case OpWrite:
		content, _ := m.o.ContentOf(op.Path)
		m.hist[op.Path] = append(m.hist[op.Path], fileVersion{op.Idx, append([]byte(nil), content...)})
		if op.Direct {
			m.floor[op.Path] = len(m.hist[op.Path]) - 1
		}
	case OpFsync:
		if n := len(m.hist[op.Path]); n > 0 {
			m.floor[op.Path] = n - 1
		}
	case OpUnlink:
		delete(m.hist, op.Path)
		delete(m.floor, op.Path)
	case OpRename:
		m.hist[op.Path2] = m.hist[op.Path]
		m.floor[op.Path2] = m.floor[op.Path]
		delete(m.hist, op.Path)
		delete(m.floor, op.Path)
	}
}

// checkPages verifies each page-sized extent of got against the file's
// acceptable version set: any snapshot at or after the durability floor
// (background flushes, write-through fallbacks and WAL replay each
// legitimately leave a different one), or zeros where the floor version had
// no bytes (pages that never became durable are zero-filled by the
// scavenger). With loose=true (the in-flight file) the floor is ignored and
// extra candidate images are admitted. Pages are the atomic write-back unit,
// so every recovered page must be *some* whole version's image — a page
// matching none is corruption, not caching.
func (m *durableModel) checkPages(path string, got []byte, ps int, loose bool, extra [][]byte) string {
	hist := m.hist[path]
	fl := m.floor[path]
	if loose {
		fl = 0
	}
	var cands [][]byte
	for v := fl; v < len(hist); v++ {
		cands = append(cands, hist[v].data)
	}
	cands = append(cands, extra...)
	floorEOF := 0
	if !loose && fl < len(hist) {
		floorEOF = len(hist[fl].data)
	}
	for pg := 0; pg*ps < len(got); pg++ {
		lo := pg * ps
		hi := lo + ps
		if hi > len(got) {
			hi = len(got)
		}
		gpage := got[lo:hi]
		ok := false
		for _, c := range cands {
			if pageMatches(c, lo, gpage) {
				ok = true
				break
			}
		}
		if !ok && (loose || lo >= floorEOF) && allZero(gpage) {
			ok = true
		}
		if !ok {
			return fmt.Sprintf("page %d (bytes [%d,%d)) matches no written version (floor v%d of %d)",
				pg, lo, hi, fl, len(hist))
		}
	}
	return ""
}

// pageMatches reports whether gpage equals version's bytes at offset off,
// zero-padded past the version's EOF.
func pageMatches(version []byte, off int, gpage []byte) bool {
	for i := range gpage {
		var w byte
		if off+i < len(version) {
			w = version[off+i]
		}
		if gpage[i] != w {
			return false
		}
	}
	return true
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// postContents applies the in-flight op to a copy of the pre-crash oracle
// and returns the resulting file contents for the paths it touches.
func postContents(m *durableModel, op Op) map[string][]byte {
	cp := NewOracle()
	for d := range m.o.dirs {
		cp.dirs[d] = true
	}
	for f, b := range m.o.files {
		cp.files[f] = append([]byte(nil), b...)
	}
	cp.Apply(op)
	out := map[string][]byte{}
	for _, path := range []string{op.Path, op.Path2} {
		if path == "" {
			continue
		}
		if b, ok := cp.files[path]; ok {
			out[path] = b
		}
	}
	return out
}

// verifyRecovered checks a recovered system against the durability model.
// inflight is the single op whose window straddled the crash instant (nil
// if the crash fell between ops); its paths get the relaxed treatment — any
// mix of pre- and post-op state is legal, but still nothing that was never
// written. Returns "" on success, or a description of the violation.
func verifyRecovered(p *sim.Proc, sys *dpc.System, cl *dpc.Client, m *durableModel, inflight *Op) string {
	ps := sys.KVFSService().Ctl.L.PageSize
	relaxed := map[string]bool{}
	if inflight != nil {
		relaxed[inflight.Path] = true
		if inflight.Path2 != "" {
			relaxed[inflight.Path2] = true
		}
	}

	// The repaired image must be structurally clean before any semantics.
	if probs := sys.KVFS.Fsck(p, sys.KVCluster).Problems; len(probs) > 0 {
		return "post-recovery fsck: " + strings.Join(probs, "; ")
	}

	// Namespace: every durable directory must list exactly the durable
	// children (strays included — anything extra survived when it should
	// not have). In-flight paths are excluded from both sides.
	for _, dir := range m.o.LiveDirs() {
		if relaxed[dir] {
			continue
		}
		want := filterChildren(dir, m.o.list(dir), relaxed)
		lsPath := dir
		if lsPath == "" {
			lsPath = "/"
		}
		ents, err := cl.Readdir(p, 0, lsPath)
		if err != nil {
			return fmt.Sprintf("recovered: readdir %s: %v", lsPath, err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		got := filterChildren(dir, sortedCopy(names), relaxed)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Sprintf("recovered: listing of %s [%s], want [%s]",
				lsPath, strings.Join(got, ","), strings.Join(want, ","))
		}
	}

	// Durable files: exact size (sizes are write-through metadata), every
	// page some version at or above the durability floor.
	for _, path := range m.o.LiveFiles() {
		if relaxed[path] {
			continue
		}
		want, _ := m.o.ContentOf(path)
		st, err := cl.StatPath(p, 0, path)
		if err != nil {
			return fmt.Sprintf("recovered: stat %s: %v", path, err)
		}
		if st.Size != uint64(len(want)) {
			return fmt.Sprintf("recovered: %s size=%d, want %d", path, st.Size, len(want))
		}
		if len(want) == 0 {
			continue
		}
		got, err := readBack(p, cl, path, len(want))
		if err != nil {
			return fmt.Sprintf("recovered: read %s: %v", path, err)
		}
		if len(got) != len(want) {
			return fmt.Sprintf("recovered: read %s: %d bytes, want %d", path, len(got), len(want))
		}
		if d := m.checkPages(path, got, ps, false, nil); d != "" {
			return fmt.Sprintf("recovered: %s: %s", path, d)
		}
	}

	// The in-flight op's paths: presence and size may reflect any point
	// through the op, but content must still be assembled from states the
	// application actually produced.
	if inflight != nil {
		post := postContents(m, *inflight)
		var extra [][]byte
		var looseHist [][]byte
		for path := range relaxed {
			for _, v := range m.hist[path] {
				looseHist = append(looseHist, v.data)
			}
		}
		for _, b := range post {
			extra = append(extra, b)
		}
		extra = append(extra, looseHist...)
		for path := range relaxed {
			st, err := cl.StatPath(p, 0, path)
			if err != nil {
				continue // absence is always acceptable mid-op
			}
			if st.Mode == kvfs.ModeDir || st.Size == 0 {
				continue
			}
			maxSz := 0
			if b, ok := m.o.ContentOf(path); ok && len(b) > maxSz {
				maxSz = len(b)
			}
			if b, ok := post[path]; ok && len(b) > maxSz {
				maxSz = len(b)
			}
			if st.Size > uint64(maxSz) {
				return fmt.Sprintf("recovered: in-flight %s size=%d beyond any state (max %d)", path, st.Size, maxSz)
			}
			got, err := readBack(p, cl, path, int(st.Size))
			if err != nil {
				return fmt.Sprintf("recovered: read in-flight %s: %v", path, err)
			}
			if d := m.checkPages(path, got, ps, true, extra); d != "" {
				return fmt.Sprintf("recovered: in-flight %s: %s", path, d)
			}
		}
	}
	return ""
}

// readBack reads a recovered file's content through direct I/O — the
// honest "what is on the backend" view, untouched by fresh cache state.
func readBack(p *sim.Proc, cl *dpc.Client, path string, n int) ([]byte, error) {
	f, err := cl.Open(p, 0, path)
	if err != nil {
		return nil, err
	}
	return f.Read(p, 0, 0, n, true)
}

// filterChildren drops children of dir whose full path is in the relaxed
// set. names must be sorted; the result preserves order.
func filterChildren(dir string, names []string, relaxed map[string]bool) []string {
	if len(relaxed) == 0 {
		return names
	}
	out := names[:0:0]
	for _, nm := range names {
		if !relaxed[dir+"/"+nm] {
			out = append(out, nm)
		}
	}
	return out
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

// crashRunStats aggregates one crash point's recovery telemetry.
type crashRunStats struct {
	replay wal.ReplayStats
	report *kvfs.RecoverReport
	lost   int
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
// instant, power failure, transplant, recovery, verification — and returns
// a failure (nil if the recovered state honors every durability promise)
// plus the run's recovery telemetry.
func runCrashPoint(seed int64, trace []Op, wins []opWindow, pt CrashPoint) (*CrashFailure, crashRunStats) {
	idx := indexOfIdx(trace, pt.Anchor)
	if idx < 0 {
		return nil, crashRunStats{}
	}
	w := wins[idx]
	tc := w.start + sim.Time(pt.Frac*float64(w.end-w.start))

	img := captureCrash(trace, tc, crashRNG(seed, pt))
	st := crashRunStats{lost: img.lost}

	sys, replay, rep, rerr := recoverImage(img)
	st.replay, st.report = replay, rep
	fail := func(diff string) *CrashFailure {
		return &CrashFailure{Seed: seed, Point: pt, When: tc, Diff: diff, Trace: trace, Replay: replay}
	}
	if rerr != nil {
		sys.StopDaemons()
		sys.Shutdown()
		return fail(fmt.Sprintf("recovery error: %v", rerr)), st
	}

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

	var diff string
	cl := sys.KVFSClient()
	sys.Drive(func(p *sim.Proc) { diff = verifyRecovered(p, sys, cl, m, inflight) })
	sys.StopDaemons()
	sys.Shutdown()
	if diff != "" {
		return fail(diff), st
	}
	return nil, st
}

// ShrinkCrash reduces a failing crash run to a (locally) minimal trace by
// delta-debugging, keeping the anchor op pinned: ops after the anchor never
// execute before the crash and are dropped outright; earlier ops are
// removed in shrinking chunks, re-timing the survivor trace each round so
// the crash instant tracks the anchor's new window. budget bounds replays.
func ShrinkCrash(fail *CrashFailure, budget int) *CrashFailure {
	trace := fail.Trace
	if i := indexOfIdx(trace, fail.Point.Anchor); i >= 0 && i+1 < len(trace) {
		trace = trace[:i+1]
	}
	best := fail
	runs := 0
	attempt := func(cand []Op) *CrashFailure {
		runs++
		wins := timeTrace(cand)
		f, _ := runCrashPoint(fail.Seed, cand, wins, fail.Point)
		return f
	}
	// The truncated trace must still fail (later ops cannot matter); be
	// defensive anyway.
	if f := attempt(trace); f != nil {
		best = f
	} else {
		trace = fail.Trace
	}
	for chunk := len(trace) / 2; chunk > 0 && runs < budget; {
		removed := false
		for start := 0; start+chunk <= len(trace) && runs < budget; {
			cand := make([]Op, 0, len(trace)-chunk)
			cand = append(cand, trace[:start]...)
			cand = append(cand, trace[start+chunk:]...)
			cand = sanitize(cand, crashStack.caps())
			if indexOfIdx(cand, fail.Point.Anchor) < 0 {
				start += chunk
				continue
			}
			if f := attempt(cand); f != nil {
				trace = cand
				best = f
				removed = true
			} else {
				start += chunk
			}
		}
		if !removed {
			chunk /= 2
		}
	}
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
}

// RunCrashSuite runs the crash-restart torture: per seed, one timing run,
// then Points crash cycles at seed-chosen instants. Returns every
// durability violation found (shrunk if configured) and the aggregate
// recovery report.
func RunCrashSuite(cfg CrashSuiteConfig) ([]*CrashFailure, *CrashReport, error) {
	ops := cfg.Ops
	if ops <= 0 {
		ops = 160
	}
	points := cfg.Points
	if points <= 0 {
		points = 6
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	par := cfg.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	var (
		mu       sync.Mutex
		failures []*CrashFailure
		report   CrashReport
		wg       sync.WaitGroup
		sem      = make(chan struct{}, par)
	)
	for _, seed := range cfg.Seeds {
		seed := seed
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			trace := GenTrace(seed, ops, crashStack.caps())
			wins := timeTrace(trace)
			rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
			for _, pt := range pickCrashPoints(rng, trace, points) {
				fail, st := runCrashPoint(seed, trace, wins, pt)
				mu.Lock()
				report.Runs++
				report.TornTails += st.replay.TornTails
				report.Replayed += st.replay.Replayed
				report.SkippedStale += st.replay.SkippedStale
				report.LostWALBlocks += st.lost
				if st.report != nil {
					report.Scavenged += st.report.RepairedFiles + st.report.OrphanAttrs +
						st.report.DanglingDentries + st.report.DupDentries
				}
				if st.replay.Duration > report.MaxRecovery {
					report.MaxRecovery = st.replay.Duration
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
		}()
	}
	wg.Wait()
	return failures, &report, nil
}
