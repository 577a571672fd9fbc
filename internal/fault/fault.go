// Package fault is a deterministic, seed-reproducible fault-injection
// framework for the simulated DPC stack. Faults are described as rules —
// (site, kind, when) triples — and an Injector instance is shared by the
// layers that consult it (ssd, pcie, nvmefs, cache). Because the whole
// simulation runs on one virtual clock with one PRNG, a given rule set
// fires at exactly the same virtual instants on every run: fault runs are
// replayable bit-for-bit, which is what lets the differential torture
// harness assert "correct bytes or clean error, never corruption" under
// injection.
//
// The injector is nil-safe: every layer holds a *Injector that is nil
// unless faults were requested, and Injector.At returns immediately on a
// nil receiver. Layers therefore pay nothing — no time, no allocations,
// no metrics keys — when injection is off, keeping injection-off metric
// snapshots byte-identical to a build without this package.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Site identifies a code location that consults the injector.
type Site int

const (
	// SiteSSDRead / SiteSSDWrite: the timed media paths in internal/ssd.
	SiteSSDRead Site = iota
	SiteSSDWrite
	// SiteTGT: the DPU-side command fetch/parse path in internal/nvmefs.
	SiteTGT
	// SiteComplete: the DPU-side completion (CQE post) path.
	SiteComplete
	// SitePCIeDMA: every DMA transfer on the PCIe link.
	SitePCIeDMA
	// SiteCacheFill: the ctl's fill/prefetch path (backend reads).
	SiteCacheFill
	// SiteCacheFlush: the ctl's flush path (backend writes).
	SiteCacheFlush
	// SiteWAL: the write-ahead log's commit path (appends) and replay path
	// (recovery reads). Consulted once per group commit and once per replay
	// read chunk.
	SiteWAL

	numSites
)

var siteNames = [numSites]string{
	"ssd-read", "ssd-write", "tgt", "complete", "pcie-dma",
	"cache-fill", "cache-flush", "wal",
}

func (s Site) String() string {
	if s >= 0 && int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site-%d", int(s))
}

// Kind is the failure mode a rule injects when it fires.
type Kind int

const (
	KindNone Kind = iota
	// KindSSDReadErr / KindSSDWriteErr: transient media error; the op is
	// charged its normal latency and then fails.
	KindSSDReadErr
	KindSSDWriteErr
	// KindSSDStall: the media op takes Rule.Delay longer than modeled.
	KindSSDStall
	// KindDropCompletion: the TGT executes the command but the CQE is
	// never posted; the host must detect this via its per-command deadline.
	KindDropCompletion
	// KindCorruptSQE: the SQE image fetched by the TGT has a flipped byte,
	// so command validation fails and the host sees StatusCorrupt.
	KindCorruptSQE
	// KindCorruptCQE: the CQE posted to the host carries a mangled CID
	// that can never match a live command; the host drops it and the
	// command later times out.
	KindCorruptCQE
	// KindWorkerCrash: the TGT fetches and consumes the SQE, then dies
	// before parsing it — no execution, no completion.
	KindWorkerCrash
	// KindFreeze: the whole controller stops serving for Rule.Delay of
	// virtual time (every queue's TGT loop stalls).
	KindFreeze
	// KindBackendReadErr / KindBackendWriteErr: the cache ctl's backend
	// page read/write fails.
	KindBackendReadErr
	KindBackendWriteErr
	// KindPCIeStall: a DMA transfer takes Rule.Delay longer than modeled.
	KindPCIeStall
	// KindWALTorn: a WAL group commit persists only a prefix of its bytes
	// and fails — the torn tail stays on the log for recovery to detect.
	KindWALTorn
	// KindWALCorrupt: a WAL group commit lands with a flipped byte and
	// fails — replay must stop at the CRC mismatch, never apply garbage.
	KindWALCorrupt
	// KindWALReplayStall: a recovery-time log read takes Rule.Delay longer
	// than modeled (slow media after the crash).
	KindWALReplayStall

	numKinds
)

var kindNames = [numKinds]string{
	"none", "ssd-read-err", "ssd-write-err", "ssd-stall",
	"drop-completion", "corrupt-sqe", "corrupt-cqe", "worker-crash",
	"freeze", "backend-read-err", "backend-write-err", "pcie-stall",
	"wal-torn", "wal-corrupt", "wal-replay-stall",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// ErrInjected is the sentinel wrapped by every error the injector makes a
// layer produce, so tests and the torture harness can tell injected
// failures from organic ones.
var ErrInjected = errors.New("fault: injected")

// Rule arms one failure mode at one site. A rule fires when the site is
// consulted and all of its gates pass:
//
//   - At: virtual time the rule becomes active (0 = active from boot).
//   - FromOp: 1-based index of the first consultation of this site that
//     the rule may fire on (0/1 = from the first).
//   - Every: fire on every Nth eligible consultation (0 or 1 = on each).
//   - Count: total number of firings allowed (0 = unlimited).
//
// Delay is the extra virtual time injected by the stall/freeze kinds.
type Rule struct {
	Site   Site
	Kind   Kind
	At     sim.Time
	FromOp uint64
	Every  uint64
	Count  int
	Delay  time.Duration
}

// Injector evaluates a rule set against a stream of site consultations.
// It is engine-serial like everything else in the simulation: no locks.
type Injector struct {
	eng   *sim.Engine
	rules []Rule
	fired []int            // per-rule firing count
	ops   [numSites]uint64 // per-site consultation count
	armed bool
	until sim.Time // controller frozen until this instant (0 = not)

	kindCount [numKinds]int64 // total firings by kind; fault.injected.<kind> under AttachObs
}

// New builds an injector over the engine's virtual clock. The injector
// starts armed; Disarm stops all future firings (used by the torture
// harness to let the stack recover before final verification).
func New(eng *sim.Engine, rules []Rule) *Injector {
	return &Injector{
		eng:   eng,
		rules: append([]Rule(nil), rules...),
		fired: make([]int, len(rules)),
		armed: true,
	}
}

// AttachObs publishes the per-kind injection counts. Call only on fault
// runs — publishing the keys changes metric snapshots.
func (in *Injector) AttachObs(o *obs.Obs) {
	if in == nil || o == nil {
		return
	}
	for k := Kind(1); k < numKinds; k++ {
		o.Publish("fault.injected."+k.String(), &in.kindCount[k]) // closed Kind enum //dpclint:ok
	}
}

// Disarm stops the injector: At reports no fault at any site from now on.
// Site op counters keep advancing.
func (in *Injector) Disarm() {
	if in != nil {
		in.armed = false
	}
}

// FrozenUntil returns the instant a previously fired KindFreeze rule
// thaws the controller, or 0 when no freeze is pending.
func (in *Injector) FrozenUntil() sim.Time {
	if in == nil {
		return 0
	}
	return in.until
}

// At is the single consultation point. It bumps the site's op counter,
// finds the first armed rule whose gates pass, and returns its kind plus
// the stall delay (meaningful for the stall/freeze kinds). ok is false
// when nothing fires. Safe on a nil receiver.
func (in *Injector) At(site Site) (kind Kind, delay time.Duration, ok bool) {
	if in == nil {
		return KindNone, 0, false
	}
	in.ops[site]++
	if !in.armed {
		return KindNone, 0, false
	}
	op := in.ops[site]
	now := in.eng.Now()
	for i := range in.rules {
		r := &in.rules[i]
		if r.Site != site || now < r.At {
			continue
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		from := r.FromOp
		if from == 0 {
			from = 1
		}
		if op < from {
			continue
		}
		every := r.Every
		if every == 0 {
			every = 1
		}
		if (op-from)%every != 0 {
			continue
		}
		in.fired[i]++
		in.kindCount[r.Kind]++
		if r.Kind == KindFreeze {
			thaw := now + sim.Time(r.Delay.Nanoseconds())
			if thaw > in.until {
				in.until = thaw
			}
		}
		return r.Kind, r.Delay, true
	}
	return KindNone, 0, false
}

// Errf builds an error for a fired kind, wrapping ErrInjected.
func Errf(kind Kind, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("%w: %s: %s", ErrInjected, kind, msg)
}

// Counts returns the total firings per kind in a deterministic order,
// skipping kinds that never fired. Safe on a nil receiver.
func (in *Injector) Counts() []KindCount {
	if in == nil {
		return nil
	}
	var out []KindCount
	for k := Kind(1); k < numKinds; k++ {
		if n := in.kindCount[k]; n > 0 {
			out = append(out, KindCount{Kind: k, N: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// KindCount pairs a kind with its firing total for reporting.
type KindCount struct {
	Kind Kind
	N    int64
}

// TortureSchedule derives a bounded per-seed rule set for the torture
// harness. Every rule has a finite Count, so retries always eventually
// succeed and the differential oracle stays decidable: the harness only
// asserts "correct bytes or clean error", never retry exhaustion.
func TortureSchedule(seed int64) []Rule {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0x243F6A88))
	j := func(base uint64) uint64 { return base + uint64(rng.Intn(int(base/4+1))) }
	return []Rule{
		{Site: SiteTGT, Kind: KindCorruptSQE, FromOp: j(40), Every: j(211), Count: 8},
		{Site: SiteComplete, Kind: KindDropCompletion, FromOp: j(60), Every: j(173), Count: 8},
		{Site: SiteComplete, Kind: KindCorruptCQE, FromOp: j(90), Every: j(307), Count: 6},
		{Site: SiteTGT, Kind: KindWorkerCrash, FromOp: j(120), Every: j(401), Count: 4},
		{Site: SiteTGT, Kind: KindFreeze, FromOp: j(500), Every: j(2500), Count: 2,
			Delay: time.Duration(200+rng.Intn(200)) * time.Microsecond},
		{Site: SiteCacheFlush, Kind: KindBackendWriteErr, FromOp: j(8), Every: j(97), Count: 12},
		{Site: SiteCacheFill, Kind: KindBackendReadErr, FromOp: j(30), Every: j(151), Count: 6},
		{Site: SitePCIeDMA, Kind: KindPCIeStall, FromOp: j(200), Every: j(509), Count: 8,
			Delay: time.Duration(10+rng.Intn(30)) * time.Microsecond},
		// WAL faults: only consulted when the cache write-ahead log is
		// enabled (the crash-restart harness), inert otherwise. Every kind
		// fails the commit cleanly, so a retried fsync eventually lands once
		// the bounded counts are spent.
		{Site: SiteWAL, Kind: KindWALTorn, FromOp: j(6), Every: j(41), Count: 3},
		{Site: SiteWAL, Kind: KindWALCorrupt, FromOp: j(14), Every: j(67), Count: 2},
		{Site: SiteWAL, Kind: KindWALReplayStall, FromOp: 1, Every: j(5), Count: 4,
			Delay: time.Duration(30+rng.Intn(60)) * time.Microsecond},
	}
}

// CannedSchedule is the fixed rule set behind `dpcbench -faults`: one of
// everything, bounded, aggressive enough that every recovery path fires
// during the reference workload.
func CannedSchedule() []Rule {
	return []Rule{
		{Site: SiteTGT, Kind: KindCorruptSQE, FromOp: 50, Every: 97, Count: 16},
		{Site: SiteComplete, Kind: KindDropCompletion, FromOp: 80, Every: 131, Count: 16},
		{Site: SiteComplete, Kind: KindCorruptCQE, FromOp: 110, Every: 211, Count: 8},
		{Site: SiteTGT, Kind: KindWorkerCrash, FromOp: 160, Every: 311, Count: 8},
		{Site: SiteTGT, Kind: KindFreeze, FromOp: 700, Every: 3001, Count: 2, Delay: 300 * time.Microsecond},
		{Site: SiteCacheFlush, Kind: KindBackendWriteErr, FromOp: 4, Every: 61, Count: 24},
		{Site: SiteCacheFill, Kind: KindBackendReadErr, FromOp: 20, Every: 127, Count: 8},
		{Site: SitePCIeDMA, Kind: KindPCIeStall, FromOp: 300, Every: 401, Count: 12, Delay: 20 * time.Microsecond},
	}
}
