// Package nvmefs implements nvme-fs, the paper's NVMe-based file protocol
// for DPU-offloaded file system stacks (§3.2).
//
// The host-side NVME-INI driver produces 64-byte bidirectional SQEs (vendor
// opcode 0xA3) at the tail of a submission queue and rings a doorbell; a
// per-queue NVME-TGT thread on the DPU consumes them. An 8 KB write costs
// exactly 4 DMAs (Figure 4): ① SQE fetch, ② PRP/buffer-descriptor fetch,
// ③ payload read, ④ CQE write. Unlike the virtio-fs baseline, nvme-fs is
// multi-queue: one TGT thread per queue, so throughput scales with queues.
//
// File-semantic request headers ride at the head of the write buffer
// (WH_len) and response headers at the head of the read buffer (RH_len),
// giving bidirectional semantics within a single command.
package nvmefs

import (
	"fmt"
	"time"

	"dpc/internal/bufpool"
	"dpc/internal/fault"
	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/obs"
	"dpc/internal/pcie"
	"dpc/internal/sim"
)

// Request is a decoded command as seen by the DPU-side handler. Header and
// Data alias a pooled DPU buffer that is recycled once the command has
// completed: a Handler may read them (and return them in its Response) but
// must not retain them after it returns.
type Request struct {
	QID    int
	Tenant int // owning tenant of the queue the command arrived on; -1 when single-tenant
	SQE    nvme.SQE
	Header []byte // WH_len request header bytes
	Data   []byte // write payload after the header
	out    []byte // the TGT's pooled response buffer (ReadBuf); nil in a bare Request
}

// ReadBuf returns a buffer of unspecified contents for n bytes of read
// payload, for the handler to fill and return, whole or a prefix, as
// Response.Data: the transport's pooled buffer, cut like the response itself
// to the reserved payload size, or a fresh one when there is none. It must
// not be retained: the TGT takes it back once the completion is posted. No
// other Response bytes are recycled, so a handler may return its own slices.
func (r Request) ReadBuf(n int) []byte {
	if r.out == nil {
		return make([]byte, n)
	}
	return r.out[:min(n, len(r.out))]
}

// Response is the handler's reply. Header must be at most the RHLen the
// submitter reserved; Data at most ReadLen-RHLen.
type Response struct {
	Status uint16
	Result uint32
	Header []byte
	Data   []byte
}

// Handler executes a request on the DPU (the IO_Dispatch module and the
// stacks behind it). It must not retain req.Header or req.Data, nor mutate
// the returned Response's bytes before the command completes.
type Handler func(p *sim.Proc, req Request) Response

// TenantConfig is one tenant's share of the virtualized transport: its
// scheduling weight, and the hard budgets the DPU-side scheduler enforces
// against it. Zero values mean "unlimited" for the budgets and weight 1 for
// the share.
type TenantConfig struct {
	// Weight scales the tenant's deficit-round-robin quantum: a weight-2
	// tenant earns twice the dispatch bytes per round of a weight-1 tenant
	// when both are backlogged. 0 means 1.
	Weight int
	// MaxInflight caps commands dispatched (pulled + executing) but not yet
	// completed for this tenant. 0 = unlimited.
	MaxInflight int
	// BandwidthBps is a token-bucket rate limit on dispatched SQE cost
	// (command overhead + payload bytes both directions) per second of
	// virtual time. 0 = unlimited.
	BandwidthBps int64
	// MaxQueued bounds the tenant's ready queue on the DPU: a command
	// arriving past the bound is shed at admission with StatusOverload
	// (retryable — the host backs off and resubmits) before any PRP or
	// payload DMA is spent on it. 0 = unlimited.
	MaxQueued int
}

// Config sizes the driver.
type Config struct {
	Queues    int // SQ/CQ pairs, each with its own TGT thread
	Depth     int // entries per queue
	SlotsPerQ int // concurrent request buffers per queue
	MaxIO     int // largest payload per request
	RHCap     int // response header capacity per request
	// InlineMax enables the inline small-I/O fast path and caps the payload
	// it may carry. When > 0, small write payloads ride inside the per-queue
	// inline window next to the SQE (PIO-staged, no PRP-fetch or data-in
	// DMA) and small read responses return through the enlarged-CQE window
	// (one contiguous [CQE|header|data] DMA instead of data-out + CQE). The
	// write-side DMA↔inline cutover is fixed at construction from the link's
	// cost model (see WriteCutover).
	// 0 (the default) disables the path entirely: no window allocations, no
	// extra metrics, byte-identical behavior to builds without it.
	InlineMax int

	// InflightWindow bounds how many commands a single application thread
	// keeps in flight when it pipelines a multi-page or multi-chunk client
	// read or write. 0 means the default. The window also sets how many SQEs
	// share one doorbell when the client submits a burst with SubmitBatch.
	InflightWindow int

	// Failure-handling knobs. Per-command deadlines are armed only when a
	// fault injector is attached (SetFaults), so fault-free runs schedule
	// no extra events and stay byte-identical to older builds.
	CmdTimeout     time.Duration // per-command deadline (default 5ms)
	MaxRetries     int           // bounded retries of retryable statuses (default 8)
	ResetThreshold int           // consecutive timeouts that trigger a controller reset (default 8)
	ResetDelay     time.Duration // modeled cost of a controller reset (default 200µs)

	// Tenants virtualizes the transport into per-tenant queue groups
	// (SR-IOV style): with N >= 2 entries, the Queues SQ/CQ pairs are
	// partitioned contiguously — tenant t owns Queues/N pairs starting at
	// t*Queues/N — and a DPU-side scheduler arbitrates between queue drain
	// and dispatch: deficit-round-robin weighted by TenantConfig.Weight over
	// SQE cost estimates, per-tenant inflight and bandwidth budgets, and
	// admission shedding past MaxQueued. Queues must divide evenly.
	//
	// Empty or single-entry (the default) leaves the transport exactly as
	// before: no scheduler procs, no per-tenant metrics, TGT threads hand
	// work straight to workers — byte-identical to builds without tenancy.
	Tenants []TenantConfig

	// SchedFIFO replaces the weighted-fair policy with strict FIFO arrival
	// order across all tenants — same dispatch-worker topology, no budgets,
	// no shedding. This is the "scheduler off" arm of the noisy-neighbor
	// A/B: queue groups and workers identical, arbitration policy removed.
	SchedFIFO bool

	// DispatchWorkers bounds the DPU-side dispatch/execute procs the
	// scheduler feeds (multi-tenant mode only). 0 means 8.
	DispatchWorkers int

	// InlineCutover pins the inline-write payload cutover instead of the
	// break-even value WriteCutover derives from the link's costs: when > 0
	// the cutover is min(InlineCutover, InlineMax). 0 (the default) keeps
	// the derived value.
	InlineCutover int
}

// DefaultConfig suits small-I/O experiments: 32 queues so application
// threads spread widely, with enough buffer slots for deep concurrency.
func DefaultConfig() Config {
	return Config{Queues: 32, Depth: 64, SlotsPerQ: 16, MaxIO: 64 * 1024, RHCap: 256, InflightWindow: 16}
}

// Submission is the host-side request.
type Submission struct {
	FileOp   uint32
	Dispatch uint8 // nvme.DispatchKVFS or nvme.DispatchDFS
	DW12     uint32
	Header   []byte // request header (becomes WH)
	Payload  []byte // write payload
	ReadLen  int    // response payload bytes expected (data after header)
	RHLen    int    // response header bytes expected

	// ReadInto, when non-nil with len >= ReadLen, receives the response
	// payload in place: the completion IRQ copies into it and Completion.Data
	// aliases it, so the steady-state read path allocates nothing per op.
	ReadInto []byte
}

// Completion is the host-side result.
type Completion struct {
	Status uint16
	Result uint32
	Header []byte
	Data   []byte
}

// OK reports whether the command succeeded.
func (c Completion) OK() bool { return c.Status == nvme.StatusOK }

// pendingCmd tracks one in-flight command from SQE enqueue to host reap.
// The completion path (IRQ callback) decodes the response out of the slot
// buffer and frees the slot/CID itself, so a blocked submitter with a full
// in-flight window can make progress without anyone calling Wait first.
type pendingCmd struct {
	cond     sim.Cond // initialised in place; never copy a pendingCmd
	done     bool
	comp     Completion
	slot     int
	rhLen    int    // response header bytes the submitter asked for
	readLen  int    // response payload bytes after the header
	token    uint32 // retry token the SQE carried; completions must echo it
	readInto []byte // caller-owned destination for response data (optional)
}

type queueState struct {
	qp       *nvme.QueuePair
	doorbell mem.Addr
	kick     *sim.Mailbox[struct{}]

	// tenant owns this queue pair in multi-tenant mode; -1 single-tenant.
	tenant int

	slabBase mem.Addr
	wStride  int
	rStride  int

	freeSlots []int
	slotCond  *sim.Cond
	sqCond    *sim.Cond

	// depthGauge ("nvmefs.q<N>.sq_depth") tracks in-flight commands on this
	// queue, sampled at submit and reap so wait spikes correlate with queue
	// saturation. Registered only in profiling mode (nil no-op otherwise) to
	// keep the non-profiled metric key set unchanged.
	depthGauge *obs.Gauge

	pending map[uint16]*pendingCmd // by CID
	// spanOf carries the submitter's span across the host→TGT hop so the
	// DPU-side spans nest under the client operation that issued the CID.
	spanOf  map[uint16]obs.Span
	freeCID []uint16

	// unrung counts SQEs enqueued since the last doorbell ring: a burst
	// submitted with SubmitBatch publishes all of them with one MMIO.
	unrung int

	// Inline small-I/O state, populated only when Config.InlineMax > 0.
	//
	// inWin is the per-queue inline staging window in DPU memory: Depth
	// slots of inStride = 64+InlineMax bytes, indexed by SQ ring position.
	// The host PIO-writes [header|payload] into the slot matching its SQE;
	// the TGT copies it out device-locally before it advances SQHead (after
	// which the host may reuse the ring position and overwrite the slot).
	//
	// cqWin is the enlarged-CQE window in host memory: Depth slots of
	// cqStride = CQESize+RHCap+InlineMax bytes, indexed by CQ ring position.
	// An inline-read completion lands as one contiguous [CQE|header|data]
	// DMA there; the IRQ handler decodes response bytes from the window.
	inWin    mem.Addr
	inStride int
	cqWin    mem.Addr
	cqStride int

	// gen is the queue's reset generation. A controller reset bumps it;
	// TGT work that straddles the reset (SQE fetches, workers mid-handler)
	// re-checks it and drops its results instead of touching rings or
	// buffers the reset has re-armed.
	gen int

	// exec is the executed-response cache keyed by retry token, populated
	// only on fault runs. A retried command whose first attempt actually
	// executed (the completion was dropped, corrupted, or late) hits this
	// cache and gets the original response replayed instead of running the
	// handler twice — exactly-once effect semantics for non-idempotent
	// ops. Bounded FIFO; first writer wins (the first execution to finish
	// is the one whose effect took, so its status is the canonical one).
	exec      map[uint32]Response
	execOrder []uint32
}

// execCap bounds the per-queue executed-response cache.
const execCapPerDepth = 4

// retryBase and retryMax bound Wait's exponential retry backoff: the first
// step and the cap.
const (
	retryBase = 20 * time.Microsecond
	retryMax  = 640 * time.Microsecond
)

// slotGrace is how long an aborted command's buffer slot is quarantined
// before returning to the free list. A worker that passed its liveness
// check just before the abort may still have a data-out DMA in flight;
// the grace period outlasts any modeled transfer (including injected
// stalls) so the slot cannot be re-assigned while stale bytes can still
// land in it.
const slotGrace = 500 * time.Microsecond

func (qs *queueState) execPut(depth int, token uint32, resp Response) {
	if token == 0 {
		return
	}
	if qs.exec == nil {
		qs.exec = map[uint32]Response{}
	}
	if _, ok := qs.exec[token]; ok {
		return
	}
	if len(qs.execOrder) >= execCapPerDepth*depth {
		delete(qs.exec, qs.execOrder[0])
		qs.execOrder = qs.execOrder[1:]
	}
	// The cache outlives the command: own the bytes, which may alias the
	// request buffer (echo handlers) that is about to be recycled.
	resp.Header = append([]byte(nil), resp.Header...)
	resp.Data = append([]byte(nil), resp.Data...)
	qs.exec[token] = resp
	qs.execOrder = append(qs.execOrder, token)
}

func (qs *queueState) execGet(token uint32) (Response, bool) {
	if token == 0 || qs.exec == nil {
		return Response{}, false
	}
	r, ok := qs.exec[token]
	return r, ok
}

// Driver is the assembled nvme-fs stack: NVME-INI on the host, NVME-TGT
// threads on the DPU, and the handler behind them.
type Driver struct {
	m       *model.Machine
	cfg     Config
	handler Handler
	queues  []*queueState

	// o is the machine's observability hub (nil no-op when disabled); po is
	// non-nil only in profiling mode and gates wait-interval attribution
	// (slot/SQ/inflight/backoff/reset waits) and per-queue depth gauges.
	o  *obs.Obs
	po *obs.Obs
	// oDoorbells counts doorbell MMIOs; oCoalesced counts SQEs that shared
	// a doorbell with an earlier SQE (the MMIOs a serial submitter would
	// have paid). oInflight/oInflightPeak gauge the async pipeline depth.
	oDoorbells    *obs.Counter
	oCoalesced    *obs.Counter
	oInflight     *obs.Gauge
	oInflightPeak *obs.Gauge

	// pool recycles the TGT's request buffers (and, on the host side, the
	// inline path's PIO staging buffers).
	pool *bufpool.Pool
	// cutover is the largest write payload that goes inline (WriteCutover;
	// 0 with the inline path off), exported as nvmefs.driver.inline_cutover.
	cutover int
	// InlineWrites/InlineReads count commands that took the inline path;
	// InlineBytes counts payload bytes moved inline (both directions).
	// Published as nvmefs.driver.inline_* only with the path enabled.
	InlineWrites int64
	InlineReads  int64
	InlineBytes  int64

	// Completed counts finished commands (nvmefs.driver.completed).
	Completed int64

	// inflight is the number of commands submitted and not yet completed,
	// across all queues.
	inflight int64

	// sched arbitrates between queue drain and dispatch in multi-tenant
	// mode; nil (the default) means TGT threads dispatch directly.
	sched *scheduler

	// faults is the injector consulted on the TGT and completion paths;
	// nil (the default) means no injection, no deadlines, no extra events.
	faults *fault.Injector
	// nextToken hands out retry tokens; monotonically increasing, never 0.
	nextToken uint32
	// consecTimeouts counts command deadlines expired since the last clean
	// completion; crossing ResetThreshold triggers a controller reset.
	consecTimeouts int
	resetting      bool

	// Failure counters. Always maintained (they replace panics that could
	// fire with injection off too); SetFaults publishes six of them, so
	// fault-free metric snapshots keep their exact key set.
	Timeouts           int64 // per-command deadlines expired
	Retries            int64 // command resubmissions
	Resets             int64 // controller resets
	DroppedCompletions int64 // CQEs lost (injected)
	UnknownCompletions int64 // CQEs dropped by the host: unknown CID or stale token
	StaleCompletions   int64 // completions discarded by a reset-generation mismatch
	CorruptSQEs        int64 // SQE images that failed validation at the TGT
	HeaderOverflows    int64 // handler responses whose header exceeded RHLen
	WorkerCrashes      int64 // TGT workers that died before executing (injected)
	DedupHits          int64 // retried commands answered from the executed-response cache
}

// NewDriver lays out the queues and buffers and starts one TGT thread per
// queue.
func NewDriver(m *model.Machine, cfg Config, handler Handler) *Driver {
	if cfg.Queues < 1 || cfg.Depth < 2 || cfg.SlotsPerQ < 1 || cfg.MaxIO < 512 || cfg.RHCap < 16 {
		panic(fmt.Sprintf("nvmefs: bad config %+v", cfg))
	}
	if cfg.InflightWindow <= 0 {
		cfg.InflightWindow = DefaultConfig().InflightWindow
	}
	if cfg.CmdTimeout <= 0 {
		// Must exceed the worst-case legitimate command (Flush/Barrier run
		// full cache write-back inline); spurious timeouts are correct —
		// the token protocol dedups the re-execution — but wasted work.
		cfg.CmdTimeout = 5 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.ResetThreshold <= 0 {
		cfg.ResetThreshold = 8
	}
	if cfg.ResetDelay <= 0 {
		cfg.ResetDelay = 200 * time.Microsecond
	}
	if cfg.InlineMax > cfg.MaxIO {
		cfg.InlineMax = cfg.MaxIO
	}
	multiTenant := len(cfg.Tenants) >= 2
	if multiTenant {
		if cfg.Queues%len(cfg.Tenants) != 0 {
			panic(fmt.Sprintf("nvmefs: %d queues do not partition over %d tenants", cfg.Queues, len(cfg.Tenants)))
		}
		if cfg.DispatchWorkers <= 0 {
			cfg.DispatchWorkers = 8
		}
	}
	d := &Driver{m: m, cfg: cfg, handler: handler, pool: bufpool.New(), cutover: WriteCutover(m.PCIe.Config(), cfg)}
	if o := m.Obs; o.Enabled() {
		d.o = o
		d.po = o.Prof()
		o.Publish("nvmefs.driver.completed", &d.Completed)
		d.oDoorbells = o.Counter("nvmefs.driver.doorbells")
		d.oCoalesced = o.Counter("nvmefs.driver.doorbells_coalesced")
		d.oInflight = o.Gauge("nvmefs.driver.inflight")
		d.oInflightPeak = o.Gauge("nvmefs.driver.inflight_peak")
		if cfg.InlineMax > 0 {
			// Published only with the path enabled so inline-off runs keep
			// their exact metric key set (snapshot byte stability).
			o.Publish("nvmefs.driver.inline_writes", &d.InlineWrites)
			o.Publish("nvmefs.driver.inline_reads", &d.InlineReads)
			o.Publish("nvmefs.driver.inline_bytes", &d.InlineBytes)
			o.Gauge("nvmefs.driver.inline_cutover").Set(float64(d.cutover))
		}
	}
	for qid := 0; qid < cfg.Queues; qid++ {
		sqBase := m.AllocHost(cfg.Depth*nvme.SQESize, 4096)
		cqBase := m.AllocHost(cfg.Depth*nvme.CQESize, 4096)
		tenant := -1
		if multiTenant {
			tenant = qid / (cfg.Queues / len(cfg.Tenants))
		}
		qs := &queueState{
			qp:       nvme.NewQueuePair(qid, sqBase, cqBase, cfg.Depth),
			tenant:   tenant,
			doorbell: m.AllocDPU(8, 8),
			kick:     sim.NewMailbox[struct{}](m.Eng, fmt.Sprintf("nvme-kick-%d", qid), 1),
			slotCond: sim.NewCond(m.Eng, "nvme-slots"),
			sqCond:   sim.NewCond(m.Eng, "nvme-sq"),
			pending:  map[uint16]*pendingCmd{},
			spanOf:   map[uint16]obs.Span{},
			wStride:  64 + cfg.MaxIO,
			rStride:  cfg.RHCap + cfg.MaxIO,
		}
		if d.po != nil {
			qs.depthGauge = d.po.Gauge(fmt.Sprintf("nvmefs.q%d.sq_depth", qid))
		}
		if cfg.InlineMax > 0 {
			qs.inStride = 64 + cfg.InlineMax
			qs.cqStride = nvme.CQESize + cfg.RHCap + cfg.InlineMax
			qs.inWin = m.AllocDPU(cfg.Depth*qs.inStride, 4096)
			qs.cqWin = m.AllocHost(cfg.Depth*qs.cqStride, 4096)
		}
		qs.slabBase = m.AllocHost(cfg.SlotsPerQ*(qs.wStride+qs.rStride), 4096)
		for i := cfg.SlotsPerQ - 1; i >= 0; i-- {
			qs.freeSlots = append(qs.freeSlots, i)
		}
		for c := cfg.Depth - 1; c >= 0; c-- {
			qs.freeCID = append(qs.freeCID, uint16(c))
		}
		d.queues = append(d.queues, qs)
		m.Eng.Go(fmt.Sprintf("nvme-tgt-%d", qid), func(p *sim.Proc) { d.tgtLoop(p, qs) })
	}
	if multiTenant {
		d.sched = newScheduler(d)
		for w := 0; w < cfg.DispatchWorkers; w++ {
			m.Eng.Go(fmt.Sprintf("nvme-dispatch-%d", w), d.dispatchLoop)
		}
	}
	return d
}

// Tenants returns the number of configured tenants (0 when the transport is
// not virtualized).
func (d *Driver) Tenants() int {
	if len(d.cfg.Tenants) < 2 {
		return 0
	}
	return len(d.cfg.Tenants)
}

// TenantQueues returns tenant t's contiguous queue-group slice [base,
// base+count). Single-tenant drivers report the whole queue range for t=0.
func (d *Driver) TenantQueues(t int) (base, count int) {
	n := d.Tenants()
	if n == 0 {
		return 0, d.cfg.Queues
	}
	count = d.cfg.Queues / n
	return t * count, count
}

// SetFaults attaches a fault injector: the TGT and completion paths start
// consulting it, and every enqueue arms a per-command deadline event. The
// failure counters are published here — not at construction — so that
// fault-free runs export exactly the same metric key set as before.
func (d *Driver) SetFaults(in *fault.Injector) {
	d.faults = in
	if in == nil {
		return
	}
	d.o.Publish("nvmefs.driver.timeouts", &d.Timeouts)
	d.o.Publish("nvmefs.driver.retries", &d.Retries)
	d.o.Publish("nvmefs.driver.resets", &d.Resets)
	d.o.Publish("nvmefs.driver.dropped_completions", &d.DroppedCompletions)
	d.o.Publish("nvmefs.driver.unknown_completions", &d.UnknownCompletions)
	d.o.Publish("nvmefs.driver.dedup_hits", &d.DedupHits)
}

// WriteCutover is the largest write payload, in bytes, that goes inline
// over a link with costs pc. An inline write replaces two DMAs (the 64-byte
// PRP/header fetch and the payload pull) with one PIO burst of the same 64+n
// bytes, so with pio and dma the per-byte costs inline wins while
//
//	mmio + pio·(64+n)  <  2·setup + dma·(64+n)
//
// i.e. for 64+n below (2·setup − mmio)/(pio − dma). The result is clamped
// to [0, InlineMax]; when PIO is at least as fast per byte as DMA the cutover
// saturates at InlineMax. A positive cfg.InlineCutover pins the cutover
// instead (still clamped to InlineMax). 0 with the inline path off.
func WriteCutover(pc pcie.Config, cfg Config) int {
	if cfg.InlineMax <= 0 {
		return 0
	}
	if cfg.InlineCutover > 0 {
		return min(cfg.InlineCutover, cfg.InlineMax)
	}
	num := 2*float64(pc.DMASetup) - float64(pc.MMIOLatency)
	den := 1e9/float64(pc.PIOBandwidthBps) - 1e9/float64(pc.BandwidthBps) // ns per byte
	switch {
	case num <= 0:
		return 0
	case den > 0:
		return min(max(int(num/den)-64, 0), cfg.InlineMax)
	}
	return cfg.InlineMax
}

// Cutover returns the inline-write payload cutover in bytes (0 when the
// inline path is disabled).
func (d *Driver) Cutover() int { return d.cutover }

// Queues returns the number of queue pairs.
func (d *Driver) Queues() int { return d.cfg.Queues }

// MaxIO returns the largest payload a single command may carry.
func (d *Driver) MaxIO() int { return d.cfg.MaxIO }

// Window returns the configured per-thread in-flight pipeline window.
func (d *Driver) Window() int { return d.cfg.InflightWindow }

// Inflight returns the number of commands currently submitted and not yet
// completed (tests and gauges).
func (d *Driver) Inflight() int64 { return d.inflight }

func (qs *queueState) slotBufs(slot int) (wbuf, rbuf mem.Addr) {
	b := qs.slabBase + mem.Addr(slot*(qs.wStride+qs.rStride))
	return b, b + mem.Addr(qs.wStride)
}

// Pending is the host-side handle of an asynchronously submitted command.
// The command's response is decoded and its buffer slot and CID recycled by
// the completion interrupt itself, so a Pending never pins queue resources;
// Wait only parks until the completion lands and charges the host-side reap
// cost.
type Pending struct {
	d   *Driver
	cid uint16
	// pd is the command Wait reaps: &own until a retry, then the own of the
	// Pending the resubmission made. Handle, command and its condition are
	// one object: they live and die together.
	pd  *pendingCmd
	own pendingCmd

	// Retry state: Wait resubmits the original submission — with the same
	// token, under a fresh CID/slot — when the completion status is
	// retryable and attempts remain.
	qid      int
	sub      Submission
	token    uint32
	attempts int
}

// CID returns the command identifier the SQE carried (tests match
// completions back to submissions with it).
func (pend *Pending) CID() uint16 { return pend.cid }

// Done reports whether the completion has already landed (Wait would not
// block).
func (pend *Pending) Done() bool { return pend.pd.done }

// Submit runs one command on queue qid (callers typically pin a thread to a
// queue) and blocks until completion.
func (d *Driver) Submit(p *sim.Proc, qid int, sub Submission) Completion {
	return d.SubmitAsync(p, qid, sub).Wait(p)
}

// SubmitAsync enqueues one command on queue qid, rings the doorbell, and
// returns without waiting for completion. The caller reaps the result with
// Pending.Wait; any number of commands may be in flight per process, bounded
// only by queue resources (Depth CIDs, SlotsPerQ buffers per queue).
func (d *Driver) SubmitAsync(p *sim.Proc, qid int, sub Submission) *Pending {
	pend := d.enqueue(p, qid, sub)
	d.ring(p, d.queues[qid%len(d.queues)])
	return pend
}

// SubmitBatch enqueues a burst of commands on queue qid and rings the
// doorbell ONCE for the whole burst: one MMIO instead of len(subs). The TGT
// loop re-reads the doorbell after each SQE, so a burst published once
// drains completely and in SQ order. If the burst exhausts buffer slots or
// CIDs mid-way, the already-enqueued prefix is published before parking, so
// a burst larger than the queue's resources completes instead of
// deadlocking.
func (d *Driver) SubmitBatch(p *sim.Proc, qid int, subs []Submission) []*Pending {
	pends := make([]*Pending, len(subs))
	for i := range subs {
		pends[i] = d.enqueue(p, qid, subs[i])
	}
	if len(pends) > 0 {
		d.ring(p, d.queues[qid%len(d.queues)])
	}
	return pends
}

// enqueue reserves resources, stages buffers and writes the SQE for one
// command without ringing the doorbell. A fresh retry token is assigned.
func (d *Driver) enqueue(p *sim.Proc, qid int, sub Submission) *Pending {
	d.nextToken++
	if d.nextToken == 0 {
		d.nextToken = 1
	}
	return d.enqueueToken(p, qid, sub, d.nextToken)
}

// enqueueToken is enqueue with an explicit retry token: resubmissions of a
// timed-out or failed command reuse the original token so the TGT-side
// executed-response cache can deduplicate re-executions.
func (d *Driver) enqueueToken(p *sim.Proc, qid int, sub Submission, token uint32) *Pending {
	costs := d.m.Cfg.Costs
	qs := d.queues[qid%len(d.queues)]
	if len(sub.Payload) > d.cfg.MaxIO || sub.ReadLen > d.cfg.MaxIO {
		panic(fmt.Sprintf("nvmefs: payload %d / readlen %d exceed MaxIO %d",
			len(sub.Payload), sub.ReadLen, d.cfg.MaxIO))
	}
	if len(sub.Header) > 64 || sub.RHLen > d.cfg.RHCap {
		panic(fmt.Sprintf("nvmefs: header %d / rhlen %d exceed caps", len(sub.Header), sub.RHLen))
	}

	// Syscall + fs-adapter conversion. No FUSE layer, no payload copy: the
	// PRP points straight at the request buffer.
	s := d.o.Begin(p, "nvmefs.submit")
	d.m.HostExec(p, costs.HostSyscall+costs.HostSubmit)

	// Acquire a buffer slot and a CID, then an SQ slot. Before parking,
	// publish any batched SQEs: the TGT can only drain (and thereby free)
	// work it has been told about, so an unrung burst must not sleep on the
	// resources its own prefix is holding.
	if len(qs.freeSlots) == 0 || len(qs.freeCID) == 0 {
		waitFrom := p.Now()
		for len(qs.freeSlots) == 0 || len(qs.freeCID) == 0 {
			d.ring(p, qs)
			qs.slotCond.Wait(p)
		}
		d.po.Attr(p, obs.CompWait, "nvmefs.slot", waitFrom, p.Now())
	}
	slot := qs.freeSlots[len(qs.freeSlots)-1]
	qs.freeSlots = qs.freeSlots[:len(qs.freeSlots)-1]
	cid := qs.freeCID[len(qs.freeCID)-1]
	qs.freeCID = qs.freeCID[:len(qs.freeCID)-1]

	wbuf, rbuf := qs.slotBufs(slot)

	writeLen := 0
	if len(sub.Header) > 0 || len(sub.Payload) > 0 {
		writeLen = 64 + len(sub.Payload)
	}
	readLen := 0
	if sub.RHLen > 0 || sub.ReadLen > 0 {
		readLen = d.cfg.RHCap + sub.ReadLen
	}

	// Inline decisions. Writes inline only when there is a payload (a
	// header-only command already costs a single 64-byte fetch, which beats
	// a PIO burst) at or under the cutover, which is 0 with the path off.
	// Reads inline whenever the response fits the enlarged-CQE window:
	// folding data-out into the CQE DMA saves one DMA setup unconditionally.
	inlineW := writeLen > 64 && len(sub.Payload) <= d.cutover
	inlineR := d.cfg.InlineMax > 0 && readLen > 0 && sub.ReadLen <= d.cfg.InlineMax

	// Place the file-semantic header and payload in the write buffer. An
	// inline write stages them into the DPU window instead, once its SQ ring
	// position is known below.
	if !inlineW {
		d.m.HostMem.Write(wbuf, sub.Header)
		if len(sub.Payload) > 0 {
			d.m.HostMem.Write(wbuf+64, sub.Payload)
		}
	}

	sqe := nvme.SQE{
		Opcode:   nvme.OpcodeBidir,
		Dispatch: sub.Dispatch,
		CID:      cid,
		FileOp:   sub.FileOp,
		WriteLen: uint32(writeLen),
		ReadLen:  uint32(readLen),
		DW12:     sub.DW12,
		WHLen:    uint16(len(sub.Header)),
		RHLen:    uint16(sub.RHLen),
		Token:    token,
	}
	if writeLen > 0 && !inlineW {
		sqe.PRPWrite = [2]uint64{uint64(wbuf), uint64(wbuf) + 4096}
	}
	if readLen > 0 && !inlineR {
		sqe.PRPRead = [2]uint64{uint64(rbuf), uint64(rbuf) + 4096}
	}
	if inlineW {
		sqe.PSDTWrite = nvme.PSDTInline
	}
	if inlineR {
		sqe.PSDTRead = nvme.PSDTInline
	}

	if qs.qp.SQFull() {
		waitFrom := p.Now()
		for qs.qp.SQFull() {
			d.ring(p, qs)
			qs.sqCond.Wait(p)
		}
		d.po.Attr(p, obs.CompWait, "nvmefs.sq", waitFrom, p.Now())
	}
	if inlineW {
		// Stage [header|payload] into the inline window slot matching this
		// SQE's ring position — one write-combined PIO burst. The staging
		// buffer comes from the pool; PIOWrite only reads it, so it recycles
		// immediately.
		stage := d.pool.Get(writeLen)
		copy(stage, sub.Header)
		copy(stage[64:], sub.Payload)
		winAddr := qs.inWin + mem.Addr(qs.qp.SQTail*qs.inStride)
		d.m.PCIe.PIOWrite(p, d.m.DPUMem, winAddr, stage, "inline-sqe")
		d.pool.Put(stage)
		d.InlineWrites++
		d.InlineBytes += int64(len(sub.Payload))
	}
	if inlineR {
		d.InlineReads++
	}
	// Write the SQE into the SQ ring (host-local memory write).
	sqeAddr := qs.qp.SQ.EntryAddr(qs.qp.SQTail)
	sqe.Marshal(d.m.HostMem.Slice(sqeAddr, nvme.SQESize))
	qs.qp.SQTail = qs.qp.SQ.Next(qs.qp.SQTail)
	qs.unrung++

	pend := &Pending{d: d, cid: cid, qid: qid, sub: sub, token: token, own: pendingCmd{
		slot:     slot,
		rhLen:    sub.RHLen,
		readLen:  sub.ReadLen,
		token:    token,
		readInto: sub.ReadInto,
	}}
	pd := &pend.own
	pd.cond.Init(d.m.Eng, "nvme-cmd")
	pend.pd = pd
	qs.pending[cid] = pd
	qs.depthGauge.Set(float64(len(qs.pending)))
	if s.Valid() {
		qs.spanOf[cid] = s
	}

	// Arm the per-command deadline. Only on fault runs: a fault-free run
	// schedules no timer events at all, so its event interleaving — and
	// with it every metric and trace snapshot — is unchanged.
	if d.faults != nil {
		d.m.Eng.After(d.cfg.CmdTimeout, func() { d.onDeadline(qs, cid, pd) })
	}

	d.inflight++
	d.oInflightPeak.SetMax(float64(d.inflight))
	d.oInflight.Set(float64(d.inflight))
	s.End(p)
	return pend
}

// onDeadline aborts a command whose completion did not arrive in time: the
// pending entry is failed with StatusTimeout, its CID is recycled, and its
// buffer slot is quarantined for slotGrace before reuse (a straggling
// worker may still have a data-out DMA in flight aimed at it). The abort
// wakes both the Wait-ing owner and any submitter parked on queue
// resources, so a dropped completion can never deadlock the queue.
func (d *Driver) onDeadline(qs *queueState, cid uint16, pd *pendingCmd) {
	if pd.done || qs.pending[cid] != pd {
		return // completed, reset, or CID already recycled
	}
	d.Timeouts++
	d.consecTimeouts++
	pd.comp = Completion{Status: nvme.StatusTimeout}
	pd.done = true
	delete(qs.pending, cid)
	qs.depthGauge.Set(float64(len(qs.pending)))
	delete(qs.spanOf, cid)
	qs.freeCID = append(qs.freeCID, cid)
	slot := pd.slot
	d.m.Eng.After(slotGrace, func() {
		qs.freeSlots = append(qs.freeSlots, slot)
		qs.slotCond.Signal()
	})
	d.inflight--
	d.oInflight.Set(float64(d.inflight))
	qs.slotCond.Signal()
	pd.cond.Signal()
}

// ring publishes the SQ tail with one MMIO doorbell and kicks the queue's
// TGT thread. Every SQE enqueued since the previous ring rides the same
// doorbell; the coalesced count is the MMIOs a serial submitter would have
// paid on top.
func (d *Driver) ring(p *sim.Proc, qs *queueState) {
	if qs.unrung == 0 {
		return
	}
	d.oDoorbells.Inc()
	d.oCoalesced.Add(int64(qs.unrung - 1))
	qs.unrung = 0
	d.m.PCIe.MMIOWrite32(p, d.m.DPUMem, qs.doorbell, uint32(qs.qp.SQTail), "sq-doorbell")
	qs.kick.TrySend(struct{}{})
}

// Wait parks until the command completes and returns its decoded
// completion. The response bytes were already pulled out of the slot buffer
// by the completion interrupt; Wait charges the host-side reap cost.
//
// Wait is also the retry engine: a retryable completion status (timeout,
// transient, corrupt, reset) is resubmitted — same token, fresh CID/slot —
// after exponential backoff, up to Config.MaxRetries attempts. A run of
// consecutive timeouts past Config.ResetThreshold triggers a controller
// reset first, on the theory that the controller (not the command) is
// stuck.
func (pend *Pending) Wait(p *sim.Proc) Completion {
	d := pend.d
	s := d.o.Begin(p, "nvmefs.wait")
	for {
		if !pend.pd.done {
			waitFrom := p.Now()
			for !pend.pd.done {
				pend.pd.cond.Wait(p)
			}
			d.po.Attr(p, obs.CompWait, "nvmefs.inflight", waitFrom, p.Now())
		}
		comp := pend.pd.comp
		if !nvme.Retryable(comp.Status) || pend.attempts >= d.cfg.MaxRetries {
			d.m.HostExec(p, d.m.Cfg.Costs.HostComplete)
			d.Completed++
			s.End(p)
			return comp
		}
		pend.attempts++
		d.Retries++
		// A retryable completion is a fault-path event: pin the wait span so
		// the telemetry flight recorder keeps this op's causal tree.
		s.Pin()
		if comp.Status == nvme.StatusTimeout && d.consecTimeouts >= d.cfg.ResetThreshold {
			d.reset(p)
		}
		backoff := retryBase << (pend.attempts - 1)
		if backoff > retryMax || backoff <= 0 {
			backoff = retryMax
		}
		// The backoff sleep is recovery time, not work: attribute it as
		// wait so fault-injected runs show where retry latency went.
		backoffFrom := p.Now()
		p.Sleep(backoff)
		d.po.Attr(p, obs.CompWait, "nvmefs.backoff", backoffFrom, p.Now())
		np := d.enqueueToken(p, pend.qid, pend.sub, pend.token)
		pend.cid, pend.pd = np.cid, np.pd
		d.ring(p, d.queues[pend.qid%len(d.queues)])
	}
}

// reset performs a controller reset: every queue's rings and doorbell are
// re-armed from index zero and every in-flight command is failed with
// StatusReset — a retryable status, so Wait-side owners resubmit them
// (bounded by MaxRetries) once the reset completes. Work that straddles
// the reset (a TGT mid-fetch, a worker mid-handler) is fenced off by the
// per-queue generation counter; the executed-response cache survives so
// resubmissions of commands that did execute still deduplicate.
func (d *Driver) reset(p *sim.Proc) {
	if d.resetting {
		return
	}
	d.resetting = true
	d.Resets++
	rs := d.o.Begin(p, "nvmefs.reset")
	rs.Pin() // controller resets are always recorder-worthy
	resetFrom := p.Now()
	p.Sleep(d.cfg.ResetDelay)
	d.po.Attr(p, obs.CompWait, "nvmefs.reset", resetFrom, p.Now())
	for _, qs := range d.queues {
		qs.gen++
		// Fail in-flight commands in CID order (deterministic iteration).
		for c := 0; c < d.cfg.Depth; c++ {
			cid := uint16(c)
			pd := qs.pending[cid]
			if pd == nil {
				continue
			}
			pd.comp = Completion{Status: nvme.StatusReset}
			pd.done = true
			delete(qs.pending, cid)
			delete(qs.spanOf, cid)
			qs.freeCID = append(qs.freeCID, cid)
			slot := pd.slot
			d.m.Eng.After(slotGrace, func() {
				qs.freeSlots = append(qs.freeSlots, slot)
				qs.slotCond.Signal()
			})
			d.inflight--
			pd.cond.Signal()
		}
		d.oInflight.Set(float64(d.inflight))
		qs.depthGauge.Set(float64(len(qs.pending)))
		// Re-arm the rings. Only pending-held CIDs/slots were released
		// above: submitters parked mid-enqueue still own theirs and resume
		// against the fresh indices when the conds broadcast.
		qs.qp.SQTail, qs.qp.SQHead = 0, 0
		qs.qp.CQHead, qs.qp.CQTail = 0, 0
		qs.qp.CQPhase, qs.qp.CQPhaseDev = true, true
		qs.unrung = 0
		d.m.PCIe.MMIOWrite32(p, d.m.DPUMem, qs.doorbell, 0, "sq-doorbell-reset")
		qs.slotCond.Broadcast()
		qs.sqCond.Broadcast()
	}
	d.consecTimeouts = 0
	d.resetting = false
	rs.End(p)
}

// tgtLoop is one NVME-TGT thread: it consumes SQEs for a single queue.
func (d *Driver) tgtLoop(p *sim.Proc, qs *queueState) {
	costs := d.m.Cfg.Costs
	for {
		qs.kick.Recv(p)
		p.Sleep(costs.TGTPollDelay)
		// The doorbell register is device-local: reading it is free.
		tail := int(d.m.DPUMem.Uint32(qs.doorbell))
		for qs.qp.SQHead != tail {
			d.processOne(p, qs)
			// Re-read the doorbell: the host may have advanced it.
			tail = int(d.m.DPUMem.Uint32(qs.doorbell))
		}
	}
}

// fetched carries one consumed SQE from queue drain to dispatch: everything
// the TGT learned before any buffer was pulled. In multi-tenant mode it is
// the scheduler's unit of work — the PRP and payload DMAs are deferred until
// the scheduler actually dispatches it, so a shed or dead command never
// spends PCIe bandwidth.
type fetched struct {
	qs   *queueState
	sqe  nvme.SQE
	in   []byte // pooled write buffer [header(64)|payload]: inline-window copy-out or pullBuffers' DMAs
	gen  int    // queue generation the SQE was fetched under
	ts   obs.Span
	enq  sim.Time // fetch instant; scheduler wait = dispatch instant − enq
	cost int64    // dispatch cost estimate: command overhead + bytes both ways
}

// processOne consumes one SQE: the 4-DMA path of Figure 4. The TGT thread
// performs the SQE fetch and parse synchronously (they keep queue order),
// then hands the request to a worker process so slow file stacks do not
// serialize the queue (DPFS's single HAL thread does exactly that, which is
// part of why it cannot scale). In multi-tenant mode the hand-off goes
// through the DPU scheduler instead: the TGT only drains and admits; the
// payload pull and execution happen when the weighted-fair policy dispatches
// the command to a worker.
func (d *Driver) processOne(p *sim.Proc, qs *queueState) {
	f, ok := d.fetchOne(p, qs)
	if !ok {
		return
	}
	if d.sched != nil {
		d.sched.offer(p, f)
		f.ts.End(p)
		return
	}
	if !d.pullBuffers(p, &f) {
		f.ts.End(p)
		return
	}
	d.m.Eng.Go("nvme-worker", func(wp *sim.Proc) { d.execute(wp, f) })
	f.ts.End(p)
}

// fetchOne performs the queue-order part of the TGT path: the SQE fetch
// (①), the inline-window copy-out, SQHead advance, fault hooks, parse,
// validation and the command-liveness check. ok=false means the SQE was
// consumed but produced no dispatchable work (dropped, failed, or already
// aborted); the span is closed and any failure completion already posted.
func (d *Driver) fetchOne(p *sim.Proc, qs *queueState) (fetched, bool) {
	costs := d.m.Cfg.Costs
	link := d.m.PCIe
	hm := d.m.HostMem
	gen := qs.gen

	// A controller freeze (possibly fired on another queue — it is
	// controller-wide) stalls this TGT thread until the thaw instant.
	if until := d.faults.FrozenUntil(); until > p.Now() {
		p.SleepUntil(until)
	}

	// The TGT span opens before the SQE fetch (the fetch itself is part of
	// the TGT's work) and is linked under the submitter's span once the CID
	// is decoded.
	ts := d.o.Begin(p, "nvmefs.tgt")

	// ① Retrieve the SQE.
	sqeIdx := qs.qp.SQHead
	sqeAddr := qs.qp.SQ.EntryAddr(sqeIdx)
	// A private copy, never a view: KindCorruptSQE below flips a byte of it.
	var sqeImg [nvme.SQESize]byte
	sqeBytes := sqeImg[:]
	link.DMAReadInto(p, sqeBytes, hm, sqeAddr, "sqe")
	if qs.gen != gen {
		// A reset re-armed the ring while the fetch was in flight: the
		// bytes belong to the old generation. Drop them without touching
		// the (already re-zeroed) head index.
		ts.End(p)
		return fetched{}, false
	}
	// An inline write's bytes live in the window slot tied to this ring
	// position. They must be copied out device-locally BEFORE SQHead
	// advances: the moment the slot frees, a parked submitter may reuse the
	// position and PIO fresh bytes over them. (The later fault hooks can
	// sleep, so copying here is load-bearing, not an optimization.)
	var inBytes []byte
	if d.cfg.InlineMax > 0 {
		if peek, err := nvme.UnmarshalSQE(sqeBytes); err == nil &&
			peek.PSDTWrite == nvme.PSDTInline && peek.WriteLen > 0 {
			wl := int(peek.WriteLen)
			if wl > qs.inStride {
				wl = qs.inStride
			}
			// (On the drop paths below the buffer is simply left to the GC.)
			inBytes = d.pool.Get(wl)
			copy(inBytes, d.m.DPUMem.Slice(qs.inWin+mem.Addr(sqeIdx*qs.inStride), wl))
		}
	}
	qs.qp.SQHead = qs.qp.SQ.Next(qs.qp.SQHead)
	// Consuming the SQE frees a ring slot: a submitter blocked on SQFull
	// may enqueue (and batch) its next command while this one executes.
	qs.sqCond.Signal()

	corrupted := false
	if kind, delay, ok := d.faults.At(fault.SiteTGT); ok {
		switch kind {
		case fault.KindCorruptSQE:
			// Flip the opcode byte: the entry parses but fails validation,
			// so the host gets a retryable StatusCorrupt. The CID and token
			// bytes are untouched — a corruption that mangles those is the
			// unknown-CID path exercised by KindCorruptCQE instead.
			sqeBytes[0] ^= 0xFF
			corrupted = true
		case fault.KindWorkerCrash:
			// The command was consumed but never parsed or executed; the
			// host's deadline will notice and retry (no dedup entry exists,
			// so the retry executes fresh).
			d.WorkerCrashes++
			ts.End(p)
			return fetched{}, false
		case fault.KindFreeze:
			// FrozenUntil was set by At; the stall starts here and every
			// other queue picks it up at its next fetch.
			p.Sleep(delay)
		}
	}

	sqe, err := nvme.UnmarshalSQE(sqeBytes)
	if err != nil {
		// The entry is unparseable: no trustworthy CID to complete. Count
		// it and drop; the submitter's deadline turns this into a retry.
		d.CorruptSQEs++
		ts.End(p)
		return fetched{}, false
	}
	ts.SetParent(qs.spanOf[sqe.CID])
	d.m.DPUExec(p, costs.DPUCmdParse)

	if err := sqe.Validate(); err != nil {
		status := nvme.StatusInvalid
		if corrupted {
			// In-flight corruption, not a malformed submission: report a
			// retryable status so the (intact) original gets resubmitted.
			d.CorruptSQEs++
			status = nvme.StatusCorrupt
		}
		d.complete(p, qs, gen, sqe, Response{Status: status})
		ts.End(p)
		return fetched{}, false
	}
	// The command must still be live before its buffers are read: an
	// injected stall between the SQE fetch and here (a freeze outlasts the
	// command deadline) means the abort path may have recycled the slot the
	// PRPs point at — executing with another command's bytes, and worse,
	// caching that response under this token, would corrupt the retry.
	// Dropping is safe: the deadline already turned this into a retry.
	if qs.gen != gen {
		ts.End(p)
		return fetched{}, false
	}
	if pd := qs.pending[sqe.CID]; pd == nil || pd.done || pd.token != sqe.Token {
		ts.End(p)
		return fetched{}, false
	}
	return fetched{qs: qs, sqe: sqe, in: inBytes, gen: gen, ts: ts, enq: p.Now(),
		cost: sqeCostEstimate(sqe)}, true
}

// sqeCostEstimate is the scheduler's per-command cost in bytes: a fixed
// command overhead (SQE + PRP + CQE traffic) plus the declared transfer
// lengths in both directions. It is computable before any buffer DMA, which
// is what lets admission control shed a command at zero PCIe cost.
func sqeCostEstimate(sqe nvme.SQE) int64 {
	return 512 + int64(sqe.WriteLen) + int64(sqe.ReadLen)
}

// pullBuffers performs steps ② and ③ for a fetched command: the PRP/header
// fetch and the payload pull (both skipped for inline writes, which already
// delivered their bytes through the window). ok=false means the window bytes
// could not satisfy a corrupted inline SQE; a retryable completion was
// already posted. The DMA'd bytes must survive the handler's parks, so they
// land in a pooled buffer (f.in, laid out like an inline window slot) that
// execute recycles when the command has completed.
func (d *Driver) pullBuffers(p *sim.Proc, f *fetched) bool {
	link := d.m.PCIe
	hm := d.m.HostMem
	qs, sqe, gen := f.qs, f.sqe, f.gen
	// ② Locate the data buffer: the PRP/buffer-descriptor fetch also
	// brings in the 64-byte file-semantic request header that sits at the
	// head of the write buffer. An inline write already delivered both
	// header and payload through the window — steps ② and ③ vanish.
	switch {
	case sqe.PSDTWrite == nvme.PSDTInline && sqe.WriteLen > 0:
		if f.in == nil || len(f.in) < int(sqe.WHLen) {
			// The peek ran on pre-corruption bytes; a mangled PSDT bit or
			// length cannot be satisfied from the window. Fail retryably.
			d.complete(p, qs, gen, sqe, Response{Status: nvme.StatusCorrupt})
			return false
		}
	case sqe.WriteLen > 0:
		n := max(int(sqe.WriteLen)-64, 0) // payload bytes after the header
		f.in = d.pool.Get(64 + n)
		link.DMAReadInto(p, f.in[:64], hm, mem.Addr(sqe.PRPWrite[0]), "prp")
		if n > 0 {
			// ③ Read the payload in one contiguous transfer.
			link.DMAReadInto(p, f.in[64:], hm, mem.Addr(sqe.PRPWrite[0])+64, "data-in")
		}
	}
	return true
}

// execute runs a dispatched command to completion: dedup lookup, handler,
// response write-back (④ rides in complete). In single-tenant mode it runs
// on a per-command nvme-worker proc; in multi-tenant mode it runs inline on
// the dispatch worker the scheduler granted the command to.
func (d *Driver) execute(wp *sim.Proc, f fetched) {
	link := d.m.PCIe
	hm := d.m.HostMem
	qs, sqe, gen := f.qs, f.sqe, f.gen
	req := Request{QID: qs.qp.ID, Tenant: qs.tenant, SQE: sqe}
	if n := int(sqe.ReadLen) - d.cfg.RHCap; n > 0 {
		// Eagerly: filling it on demand needs a pointer in the Request,
		// which then escapes to the heap.
		req.out = d.pool.Get(n)
	}
	if f.in != nil {
		req.Header = f.in[:sqe.WHLen]
		if len(f.in) > 64 {
			req.Data = f.in[64:]
		}
	}
	ws := d.o.BeginChild(wp, f.ts, "nvmefs.worker")
	var resp Response
	if cached, ok := qs.execGet(sqe.Token); ok {
		// This token already executed (a retry of a command whose
		// completion was lost): replay the recorded response instead of
		// running the handler a second time.
		d.DedupHits++
		resp = cached
	} else {
		resp = d.handler(wp, req)
		// Record the response for retry dedup — except retryable
		// statuses: those mean the op did NOT take effect, so a retry
		// must re-execute it rather than replay the failure forever.
		if d.faults != nil && !nvme.Retryable(resp.Status) {
			qs.execPut(d.cfg.Depth, sqe.Token, resp)
		}
	}
	// Write back the response header + data, one contiguous DMA — but
	// only while the command is still live: if its deadline expired or
	// a reset failed it, the slot the PRP points at may already belong
	// to another command, and writing into it would corrupt that
	// command's response. (The abort path quarantines slots for
	// slotGrace, which outlasts any transfer that passed this check.)
	live := func() bool {
		if qs.gen != gen {
			return false
		}
		pd := qs.pending[sqe.CID]
		return pd != nil && pd.token == sqe.Token
	}
	if sqe.ReadLen > 0 && resp.Status == nvme.StatusOK && (len(resp.Header) > 0 || len(resp.Data) > 0) {
		if len(resp.Header) > int(sqe.RHLen) {
			// A handler bug, not a transport fault: fail the command
			// cleanly instead of crashing the TGT.
			d.HeaderOverflows++
			resp = Response{Status: nvme.StatusIOError}
		} else if sqe.PSDTRead == nvme.PSDTInline {
			// Inline read: no data-out DMA here. complete() folds the
			// response into the enlarged-CQE window in one transfer.
			if len(resp.Data) > int(sqe.ReadLen)-d.cfg.RHCap {
				resp.Data = resp.Data[:int(sqe.ReadLen)-d.cfg.RHCap]
			}
			d.InlineBytes += int64(len(resp.Data))
			resp.Result = uint32(len(resp.Data))
		} else if live() {
			// One DMA carries [header | zeros up to RHCap | data], truncated
			// to ReadLen, gathered straight into the host read buffer.
			n := min(d.cfg.RHCap+len(resp.Data), int(sqe.ReadLen))
			putResponse(link.DMAWriteView(wp, hm, mem.Addr(sqe.PRPRead[0]), n, "data-out"), d.cfg.RHCap, resp)
			resp.Result = uint32(len(resp.Data))
		}
	}
	d.complete(wp, qs, gen, sqe, resp)
	// The handler has returned and the response has left the DPU.
	d.pool.Put(f.in)
	d.pool.Put(req.out)
	ws.End(wp)
}

// putResponse lays a response out in dst the way the host decodes it:
// header at 0, zero fill up to rhCap, data from rhCap, cut off at len(dst).
func putResponse(dst []byte, rhCap int, resp Response) {
	k := copy(dst, resp.Header)
	if gapEnd := min(rhCap, len(dst)); k < gapEnd {
		clear(dst[k:gapEnd])
	}
	if len(dst) > rhCap {
		copy(dst[rhCap:], resp.Data)
	}
}

// dispatchLoop is one DPU dispatch worker: it pulls scheduler grants and
// runs them to completion. Workers are the execution concurrency bound in
// multi-tenant mode — the analogue of the DPU's core budget.
func (d *Driver) dispatchLoop(p *sim.Proc) {
	for {
		f := d.sched.next(p)
		d.dispatchOne(p, f)
	}
}

// dispatchOne re-validates a scheduler grant and executes it. The liveness
// re-check matters: the command may have timed out or been failed by a
// reset while it sat in the scheduler's ready queue, in which case its slot
// may already belong to another command and must not be touched.
func (d *Driver) dispatchOne(p *sim.Proc, f fetched) {
	qs := f.qs
	live := qs.gen == f.gen
	if live {
		pd := qs.pending[f.sqe.CID]
		live = pd != nil && !pd.done && pd.token == f.sqe.Token
	}
	if live {
		if d.pullBuffers(p, &f) {
			d.execute(p, f)
		}
	}
	d.sched.done(p, qs.tenant)
}

// complete posts the CQE (④) and interrupts the host. The interrupt
// handler decodes the response out of the slot buffer and recycles the
// slot and CID immediately — before anyone calls Wait — so a submitter
// parked on slot exhaustion with a deep in-flight window always drains.
//
// gen is the queue generation the command was fetched under: a completion
// that straddles a controller reset is discarded (its command was already
// failed with StatusReset and its ring position no longer exists). The
// host-side IRQ validates CID and token against the live pending table —
// an unknown CID or a stale token is a counted drop, never a panic: with
// deadlines and CID recycling, late completions for aborted commands are
// an expected part of the protocol.
func (d *Driver) complete(p *sim.Proc, qs *queueState, gen int, sqe nvme.SQE, resp Response) {
	if qs.gen != gen {
		d.StaleCompletions++
		return
	}
	cqe := nvme.CQE{
		Result: resp.Result,
		Token:  sqe.Token,
		SQHead: uint16(qs.qp.SQHead),
		SQID:   uint16(qs.qp.ID),
		CID:    sqe.CID,
		Phase:  qs.qp.CQPhaseDev,
		Status: resp.Status,
	}
	if kind, _, ok := d.faults.At(fault.SiteComplete); ok {
		switch kind {
		case fault.KindDropCompletion:
			// The CQE is lost on the wire: the host's deadline fires, the
			// command is retried, and the retry hits the executed-response
			// cache (the handler DID run).
			d.DroppedCompletions++
			return
		case fault.KindCorruptCQE:
			// Mangle the CID to one that can never be allocated (>= Depth)
			// and scramble the token: the host must reject it cleanly.
			cqe.CID |= 0x8000
			cqe.Token ^= 0xDEAD6077
		}
	}
	cqIdx := qs.qp.CQTail
	qs.qp.CQTail = qs.qp.CQ.Next(qs.qp.CQTail)
	if qs.qp.CQTail == 0 {
		qs.qp.CQPhaseDev = !qs.qp.CQPhaseDev
	}
	// An inline read folds the whole response into the completion: one
	// contiguous [CQE|header|data] DMA into the enlarged-CQE window slot at
	// this CQ position, replacing the separate data-out and CQE transfers.
	// hasWin tells the IRQ handler to decode response bytes from the window.
	hasWin := sqe.PSDTRead == nvme.PSDTInline && resp.Status == nvme.StatusOK &&
		(len(resp.Header) > 0 || len(resp.Data) > 0)
	var winAddr mem.Addr
	if hasWin {
		winAddr = qs.cqWin + mem.Addr(cqIdx*qs.cqStride)
		n := len(resp.Data)
		if max := qs.cqStride - nvme.CQESize - d.cfg.RHCap; n > max {
			n = max
		}
		out := d.m.PCIe.DMAWriteView(p, d.m.HostMem, winAddr, nvme.CQESize+d.cfg.RHCap+n, "cqe-inline")
		cqe.Marshal(out)
		putResponse(out[nvme.CQESize:], d.cfg.RHCap, resp)
	} else {
		var cqeBytes [nvme.CQESize]byte
		cqe.Marshal(cqeBytes[:])
		cqAddr := qs.qp.CQ.EntryAddr(cqIdx)
		d.m.PCIe.DMAWrite(p, d.m.HostMem, cqAddr, cqeBytes[:], "cqe")
	}

	d.m.Eng.After(d.m.Cfg.Costs.HostIRQDelay, func() {
		pd := qs.pending[cqe.CID]
		if pd == nil || pd.done || pd.token != cqe.Token {
			// Unknown CID, recycled CID (token mismatch), or a command
			// already aborted: drop the completion. The slot is NOT
			// recycled here — the abort path owns it.
			d.UnknownCompletions++
			return
		}
		d.consecTimeouts = 0
		comp := Completion{Status: cqe.Status, Result: cqe.Result}
		if (pd.rhLen > 0 || pd.readLen > 0) && cqe.Status == nvme.StatusOK {
			_, rbuf := qs.slotBufs(pd.slot)
			hdrAddr, dataAddr := rbuf, rbuf+mem.Addr(d.cfg.RHCap)
			if hasWin {
				hdrAddr = winAddr + nvme.CQESize
				dataAddr = winAddr + nvme.CQESize + mem.Addr(d.cfg.RHCap)
			}
			// The completion outlives the slot (recycled below), so the
			// host driver copies the response out of it.
			if pd.rhLen > 0 {
				comp.Header = append([]byte(nil), d.m.HostMem.Slice(hdrAddr, pd.rhLen)...)
			}
			n := int(cqe.Result)
			if n > pd.readLen {
				n = pd.readLen
			}
			if n > 0 {
				if len(pd.readInto) >= n {
					copy(pd.readInto, d.m.HostMem.Slice(dataAddr, n))
					comp.Data = pd.readInto[:n]
				} else {
					comp.Data = append([]byte(nil), d.m.HostMem.Slice(dataAddr, n)...)
				}
			}
		}
		pd.comp = comp
		pd.done = true
		delete(qs.pending, cqe.CID)
		qs.depthGauge.Set(float64(len(qs.pending)))
		delete(qs.spanOf, cqe.CID)
		qs.freeSlots = append(qs.freeSlots, pd.slot)
		qs.freeCID = append(qs.freeCID, cqe.CID)
		d.inflight--
		d.oInflight.Set(float64(d.inflight))
		qs.slotCond.Signal()
		pd.cond.Signal()
	})
}
