package whatif

import (
	"dpc"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/world"
)

// OpSpan is the root span every workload wraps its measured operations in.
// The runner computes component shares from the critical paths of exactly
// these roots, so baseline shares and counterfactual speedups describe the
// same set of operations.
const OpSpan = "whatif.op"

// runResult is what a workload run hands back to the runner.
type runResult struct {
	Ops       int   // measured operations (OpSpan roots when profiled)
	ElapsedNs int64 // end-to-end virtual time of the measured phase
	EndNs     int64 // engine time at shutdown, for closing the trace export
}

// Workload is one registered reference workload: a compact, fixed-work probe
// whose world is built from a Params value. Fixed work (not fixed duration)
// is what makes "elapsed at factor f over elapsed at baseline" a true
// speedup.
type Workload struct {
	Name string
	Doc  string
	// Params names the registry knobs this workload is swept across by
	// default — the knobs its data path actually exercises.
	Params []string

	// base transforms the default parameter point into this workload's
	// baseline world (e.g. the small-I/O probe's DPU-class DMA setup).
	// Overrides are applied after base, so sweeps dial the transformed
	// world.
	base func(Params) Params
	// run executes the fixed work. o is nil for timing-only runs and an
	// attached hub for attribution runs; ops must behave
	// identically either way (obs is nil-safe by construction). A failed
	// op fails the run.
	run func(p Params, o *obs.Obs) (runResult, error)
}

// Workloads returns the registered reference workloads in a fixed order.
func Workloads() []Workload {
	out := make([]Workload, len(workloads))
	copy(out, workloads)
	return out
}

// LookupWorkload finds a registered workload by name.
func LookupWorkload(name string) (Workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return Workload{}, false
}

var workloads = []Workload{
	{
		Name: "smallio",
		Doc:  "256 B transport write+read pairs, DPU-class DMA engine, inline path on",
		Params: []string{
			"pcie.dma_setup", "pcie.dma_per_byte", "pcie.pio_per_byte",
			"pcie.mmio", "cpu.cost_scale", "nvmefs.inline_cutover",
		},
		base: func(p Params) Params {
			// DPU-class DMA engine: microsecond descriptor programming makes
			// the inline/DMA tradeoff real.
			p.NvmeFS = world.SmallIO(&p.Model, 512)
			return p
		},
		run: runSmallIO,
	},
	{
		Name: "fsync",
		Doc:  "4 writers fsyncing through the WAL group-commit path",
		Params: []string{
			"ssd.write_latency", "ssd.barrier", "ssd.read_latency",
			"wal.group_window", "cpu.cost_scale",
		},
		base: func(p Params) Params {
			p.WAL.Enabled = true
			return p
		},
		run: runFsync,
	},
}

// runSmallIO is the transport-level probe: one nvme-fs queue against a free
// RAM handler (world.NewNvmeEcho), 8 warm-up pairs, then 32 measured 256 B
// write+read pairs, each pair an OpSpan root. The cutover is fixed from the
// start; the warm-up stays because removing it would move BENCH_10.
func runSmallIO(p Params, o *obs.Obs) (runResult, error) {
	const (
		size   = 256
		warmup = 8
		pairs  = 32
	)
	cfg := p.Model
	cfg.Obs = o
	m, d := world.NewNvmeEcho(cfg, p.NvmeFS, world.StoreRAM)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*7 + size)
	}
	var res runResult
	var err error
	m.Eng.Go("whatif-smallio", func(pr *sim.Proc) {
		hdr := make([]byte, 16)
		for i := 0; i < warmup && err == nil; i++ {
			_, err = world.EchoPair(pr, d, hdr, payload)
		}
		start := pr.Now()
		for i := 0; i < pairs && err == nil; i++ {
			s := o.Begin(pr, OpSpan)
			_, err = world.EchoPair(pr, d, hdr, payload)
			s.End(pr)
			res.Ops++
		}
		res.ElapsedNs = int64(pr.Now() - start)
	})
	m.Eng.Run()
	res.EndNs = int64(m.Eng.Now())
	m.Eng.Shutdown()
	return res, err
}

// runFsync runs 4 writers, each doing 8 write+fsync rounds through the
// WAL-enabled cache (world.FsyncWriters); every Sync is an OpSpan root and
// elapsed is the last worker's finish time.
func runFsync(p Params, o *obs.Obs) (runResult, error) {
	sys := world.NewSystem(func(opts *dpc.Options) {
		opts.Model, opts.NvmeFS, opts.WAL = p.Model, p.NvmeFS, p.WAL
		opts.Model.Obs = o
	})
	fsyncs, last, err := world.FsyncWriters(sys, 4, 8, 8192, "/whatif-fsync-w", func(pr *sim.Proc, f *dpc.File) error {
		s := o.Begin(pr, OpSpan)
		defer s.End(pr)
		return f.Sync(pr, 0)
	})
	sys.StopDaemons()
	res := runResult{Ops: int(fsyncs), ElapsedNs: int64(last), EndNs: int64(sys.M.Eng.Now())}
	sys.Shutdown()
	return res, err
}
