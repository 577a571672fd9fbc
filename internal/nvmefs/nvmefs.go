// Package nvmefs implements nvme-fs, the paper's NVMe-based file protocol
// for DPU-offloaded file system stacks (§3.2).
//
// The host-side NVME-INI driver produces 64-byte bidirectional SQEs (vendor
// opcode 0xA3) at the tail of a submission queue and rings a doorbell; a
// per-queue NVME-TGT thread (engine events; only handlers run on processes)
// consumes them. An 8 KB write costs exactly 4 DMAs (Figure 4): ① SQE fetch,
// ② PRP/buffer-descriptor fetch, ③ payload read, ④ CQE write. Unlike
// virtio-fs, nvme-fs is multi-queue: one TGT per queue, so it scales.
//
// File-semantic request headers ride at the head of the write buffer
// (WH_len) and response headers at the head of the read buffer (RH_len),
// giving bidirectional semantics within a single command.
package nvmefs

import (
	"fmt"

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
// Data alias a pooled DPU buffer that the TGT recycles once the command has
// completed: a Handler may read them, and return them in its Response, but
// must not retain them after it returns.
type Request struct {
	QID    int
	Tenant int // owning tenant of the queue the command arrived on; -1 when single-tenant
	SQE    nvme.SQE
	Header []byte // WH_len request header bytes
	Data   []byte // write payload after the header
	out    []byte // the TGT's pooled response buffer (ReadBuf); nil in a bare Request
	rh     []byte // the TGT's pooled response-header buffer (HeaderBuf); nil in a bare Request
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

// HeaderBuf returns a buffer of unspecified contents for an n-byte response
// header, for the handler to fill and return as Response.Header: the
// transport's pooled buffer of the RHLen the submitter reserved, or a fresh
// one when there is none or n exceeds it. Like ReadBuf it must not be
// retained: the TGT takes it back once the completion is posted.
func (r Request) HeaderBuf(n int) []byte {
	if n > len(r.rh) {
		return make([]byte, n)
	}
	return r.rh[:n]
}

// Response is the handler's reply. Header must be at most the RHLen the
// submitter reserved; Data at most ReadLen-RHLen. Its bytes must not change
// until the command has completed; the TGT recycles none of them except a
// ReadBuf buffer, and the retry-dedup cache copies what it keeps.
type Response struct {
	Status uint16
	Result uint32
	Header []byte
	Data   []byte
}

// Handler executes a request on the DPU (the IO_Dispatch module and the
// stacks behind it), under the buffer rules of Request and Response.
type Handler func(p *sim.Proc, req Request) Response

// TenantConfig is one tenant's share of the virtualized transport: the hard
// budgets the DPU-side scheduler enforces against it. Zero values mean
// "unlimited".
type TenantConfig struct {
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

	// Tenants virtualizes the transport into per-tenant queue groups
	// (SR-IOV style): with N >= 2 entries, the Queues SQ/CQ pairs are
	// partitioned contiguously — tenant t owns Queues/N pairs starting at
	// t*Queues/N — and a DPU-side scheduler arbitrates between queue drain
	// and dispatch: deficit-round-robin over SQE cost estimates (one quantum
	// per backlogged tenant per round), per-tenant inflight and bandwidth
	// budgets, and admission shedding past MaxQueued. Queues must divide
	// evenly.
	//
	// Empty or single-entry (the default) leaves the transport exactly as
	// before: no scheduler procs, no per-tenant metrics, TGT threads hand
	// work straight to workers — byte-identical to builds without tenancy.
	Tenants []TenantConfig

	// SchedFIFO replaces the fair policy with strict FIFO arrival order
	// across all tenants — same dispatch-worker topology, no budgets, no
	// shedding. This is the "scheduler off" arm of the noisy-neighbor
	// A/B: queue groups and workers identical, arbitration policy removed.
	SchedFIFO bool

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
	// The caller owns it; only the attempt that completes writes it.
	ReadInto []byte
	// HeaderInto does the same for the response header: when non-nil with
	// len >= RHLen, Completion.Header aliases it instead of a fresh copy.
	HeaderInto []byte
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

type queueState struct {
	qp       *nvme.QueuePair
	doorbell mem.Addr
	tgt      *tgt

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
	// saturation. Registered whenever obs is attached (nil no-op otherwise).
	depthGauge *obs.Gauge

	// pending holds the live command of each CID (nil when the CID is
	// free); npending counts them.
	pending  []*Pending
	npending int
	freeCID  []uint16

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

	// exec is the executed-response cache keyed by operation (a token with
	// its attempt bits cleared), populated
	// only on fault runs. A retried command whose first attempt actually
	// executed (the completion was dropped, corrupted, or late) hits this
	// cache and gets the original response replayed instead of running the
	// handler twice — exactly-once effect semantics for non-idempotent
	// ops. Bounded FIFO; first writer wins (the first execution to finish
	// is the one whose effect took, so its status is the canonical one).
	exec      map[uint32]Response
	execOrder []uint32
}

// Driver is the assembled nvme-fs stack: NVME-INI on the host, NVME-TGT
// threads on the DPU, and the handler behind them.
type Driver struct {
	m       *model.Machine
	cfg     Config
	handler Handler
	queues  []*queueState

	// o is the machine's observability hub (nil no-op when disabled); it
	// also takes wait-interval attribution (slot/SQ/inflight/backoff/reset
	// waits) and per-queue depth gauges.
	o *obs.Obs
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
	// mode; nil (the default) means TGT threads hand each command to an
	// nvme-worker of its own.
	sched *scheduler
	// Free lists of the per-command records (see DESIGN.md §6 "Command
	// lifetime"): Pendings whose Wait has returned, IRQ records whose
	// interrupt has fired, and jobs whose worker has started. Each grows to
	// the peak in-flight count and no further.
	freePend []*Pending
	freeIRQ  []*irq
	freeJobs []*job

	// faults is the injector consulted on the TGT and completion paths;
	// nil (the default) means no injection, no deadlines, no extra events.
	faults *fault.Injector
	// nextToken is the last operation's first-attempt token (newToken).
	nextToken uint32
	// consecTimeouts counts command deadlines expired since the last clean
	// completion; reaching resetThreshold triggers a controller reset.
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
	if cfg.InlineMax > cfg.MaxIO {
		cfg.InlineMax = cfg.MaxIO
	}
	multiTenant := len(cfg.Tenants) >= 2
	if multiTenant {
		if cfg.Queues%len(cfg.Tenants) != 0 {
			panic(fmt.Sprintf("nvmefs: %d queues do not partition over %d tenants", cfg.Queues, len(cfg.Tenants)))
		}
	}
	d := &Driver{m: m, cfg: cfg, handler: handler, pool: bufpool.New(), cutover: WriteCutover(m.PCIe.Config(), cfg)}
	if o := m.Obs; o.Enabled() {
		d.o = o
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
			slotCond: sim.NewCond(m.Eng, "nvme-slots"),
			sqCond:   sim.NewCond(m.Eng, "nvme-sq"),
			pending:  make([]*Pending, cfg.Depth),
			wStride:  64 + cfg.MaxIO,
			rStride:  cfg.RHCap + cfg.MaxIO,
		}
		if d.o != nil {
			qs.depthGauge = d.o.Gauge(fmt.Sprintf("nvmefs.q%d.sq_depth", qid))
		}
		if cfg.InlineMax > 0 {
			qs.inStride = 64 + cfg.InlineMax
			qs.cqStride = nvme.CQESize + cfg.RHCap + cfg.InlineMax
			qs.inWin = m.AllocDPU(cfg.Depth*qs.inStride, 4096)
			qs.cqWin = m.AllocHost(cfg.Depth*qs.cqStride, 4096)
		}
		// Each slot is its own reservation, so only the slots a workload
		// touches are backed; they lie back to back, slotBufs' stride apart.
		qs.slabBase = m.AllocHost(qs.wStride+qs.rStride, 4096)
		for i := 1; i < cfg.SlotsPerQ; i++ {
			m.AllocHost(qs.wStride+qs.rStride, 1)
		}
		for i := cfg.SlotsPerQ - 1; i >= 0; i-- {
			qs.freeSlots = append(qs.freeSlots, i)
		}
		for c := cfg.Depth - 1; c >= 0; c-- {
			qs.freeCID = append(qs.freeCID, uint16(c))
		}
		qs.tgt = newTGT(d, qs)
		d.queues = append(d.queues, qs)
	}
	if multiTenant {
		d.sched = newScheduler(d)
		for w := 0; w < dispatchWorkers; w++ {
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

// Queues returns the number of queue pairs.
func (d *Driver) Queues() int { return d.cfg.Queues }

// MaxIO returns the largest payload a single command may carry.
func (d *Driver) MaxIO() int { return d.cfg.MaxIO }

// Window returns the configured per-thread in-flight pipeline window.
func (d *Driver) Window() int { return d.cfg.InflightWindow }

func (qs *queueState) slotBufs(slot int) (wbuf, rbuf mem.Addr) {
	b := qs.slabBase + mem.Addr(slot*(qs.wStride+qs.rStride))
	return b, b + mem.Addr(qs.wStride)
}
