// Package whatif is the causal what-if profiler: because the world runs on
// a deterministic virtual clock, the counterfactual question a causal
// profiler (Coz) can only approximate on real hardware — "what would happen
// end to end if this component were 2× faster?" — is answered here exactly,
// by re-running the same seed with one hardware parameter dialed and
// measuring the true elapsed-time delta.
//
// The package has three parts: a typed parameter registry over the sim-layer
// configs (this file), a set of compact fixed-work reference workloads
// (workloads.go), and an experiment runner that sweeps parameters across
// scale factors and emits a byte-stable sensitivity report with a
// payoff-vs-profile-share cross-check (run.go).
package whatif

import (
	"fmt"
	"sort"
	"time"

	"dpc/internal/model"
	"dpc/internal/nvmefs"
	"dpc/internal/wal"
)

// Params is the full knob surface a what-if experiment can dial: the machine
// model (pcie/ssd/cpu costs), the nvme-fs transport, and the WAL. Workloads
// build their world from a Params value, so a scaled copy reaches every sim
// layer without touching call sites.
type Params struct {
	Model  model.Config
	NvmeFS nvmefs.Config
	WAL    wal.Config
}

// Defaults returns the baseline parameter point: the Table 1 machine model
// and the stock transport/WAL geometries.
func Defaults() Params {
	return Params{
		Model:  model.Default(),
		NvmeFS: nvmefs.DefaultConfig(),
		WAL:    wal.DefaultConfig(),
	}
}

// Parameter is one registered knob. Applying factor f makes the modeled
// hardware f× slower for f > 1 and faster for f < 1 (a *cost* scale: factor
// 0.5 halves DMA setup time, doubles link bandwidth, etc. — always "dial
// the cost by f", never "dial the rate").
type Parameter struct {
	// Name is the registry key, layer-dotted: "pcie.dma_setup".
	Name string
	// Layer is the owning sim layer ("pcie", "ssd", "cpu", "nvmefs", "wal").
	// The cross-check uses it to match wait-kind attributions (wait kinds
	// are layer-prefixed: "pcie.dma", "ssd.read", ...).
	Layer string
	// Component is the prof attribution component this knob's time lands in
	// ("cpu", "dma", "mmio", "ssd"), or "" for knobs that change *policy*
	// (scheduling, batching windows) rather than a component's unit cost —
	// those have no share-bound and are exempt from the cross-check.
	Component string
	// Doc is a one-line description for reports.
	Doc string

	apply func(*Params, float64)
}

// Overrides maps parameter names to scale factors. The zero value and
// factor-1 entries are exact no-ops.
type Overrides map[string]float64

// Apply returns p with every override applied. Unknown parameter names and
// non-positive factors error. With no overrides (or all factors exactly 1)
// the result is bit-identical to p, which is what keeps default benches
// byte-identical to seed.
func (ov Overrides) Apply(p Params) (Params, error) {
	// Deterministic application order regardless of map iteration.
	names := make([]string, 0, len(ov))
	for n := range ov {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := ov[n]
		if f == 1 {
			continue
		}
		if f <= 0 {
			return p, fmt.Errorf("whatif: parameter %q factor %v must be > 0", n, f)
		}
		prm, ok := Lookup(n)
		if !ok {
			return p, fmt.Errorf("whatif: unknown parameter %q", n)
		}
		prm.apply(&p, f)
	}
	return p, nil
}

// Lookup finds a registered parameter by name.
func Lookup(name string) (Parameter, bool) {
	for _, prm := range registry {
		if prm.Name == name {
			return prm, true
		}
	}
	return Parameter{}, false
}

// Registry returns every registered parameter, in a fixed order.
func Registry() []Parameter {
	out := make([]Parameter, len(registry))
	copy(out, registry)
	return out
}

// scaleDur dials a duration cost by f, rounding to the nearest nanosecond.
func scaleDur(d time.Duration, f float64) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d)*f + 0.5)
}

// scaleInt dials an integer knob by f, flooring at 1 so a deep cut can't
// turn a window/quantum into "disabled".
func scaleInt(v int, f float64) int {
	n := int(float64(v)*f + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// registry is the full knob surface. Cost knobs name the component their
// time is attributed to; policy knobs leave Component empty.
var registry = []Parameter{
	{
		Name: "pcie.dma_setup", Layer: "pcie", Component: "dma",
		Doc: "fixed per-DMA descriptor setup latency",
		apply: func(p *Params, f float64) {
			p.Model.PCIe.DMASetup = scaleDur(p.Model.PCIe.DMASetup, f)
		},
	},
	{
		Name: "pcie.dma_per_byte", Layer: "pcie", Component: "dma",
		Doc: "per-byte DMA transfer cost (inverse link bandwidth)",
		apply: func(p *Params, f float64) {
			// Cost × f means bandwidth ÷ f.
			p.Model.PCIe.BandwidthBps = int64(float64(p.Model.PCIe.BandwidthBps)/f + 0.5)
		},
	},
	{
		Name: "pcie.pio_per_byte", Layer: "pcie", Component: "mmio",
		Doc: "per-byte programmed-I/O cost (inverse PIO bandwidth)",
		apply: func(p *Params, f float64) {
			p.Model.PCIe.PIOBandwidthBps = int64(float64(p.Model.PCIe.PIOBandwidthBps)/f + 0.5)
		},
	},
	{
		Name: "pcie.mmio", Layer: "pcie", Component: "mmio",
		Doc: "posted-write doorbell latency",
		apply: func(p *Params, f float64) {
			p.Model.PCIe.MMIOLatency = scaleDur(p.Model.PCIe.MMIOLatency, f)
		},
	},
	{
		Name: "ssd.read_latency", Layer: "ssd", Component: "ssd",
		Doc: "SSD media read latency",
		apply: func(p *Params, f float64) {
			p.Model.SSD.ReadLatency = scaleDur(p.Model.SSD.ReadLatency, f)
		},
	},
	{
		Name: "ssd.write_latency", Layer: "ssd", Component: "ssd",
		Doc: "SSD media write latency (barrier cost held fixed)",
		apply: func(p *Params, f float64) {
			// Materialize the barrier's default before scaling writes, so the
			// two knobs stay independent (BarrierLatency=0 means "follow
			// WriteLatency" at device construction).
			if p.Model.SSD.BarrierLatency <= 0 {
				p.Model.SSD.BarrierLatency = p.Model.SSD.WriteLatency
			}
			p.Model.SSD.WriteLatency = scaleDur(p.Model.SSD.WriteLatency, f)
		},
	},
	{
		Name: "ssd.barrier", Layer: "ssd", Component: "ssd",
		Doc: "flush/FUA barrier cost",
		apply: func(p *Params, f float64) {
			if p.Model.SSD.BarrierLatency <= 0 {
				p.Model.SSD.BarrierLatency = p.Model.SSD.WriteLatency
			}
			p.Model.SSD.BarrierLatency = scaleDur(p.Model.SSD.BarrierLatency, f)
		},
	},
	{
		Name: "cpu.cost_scale", Layer: "cpu", Component: "cpu",
		Doc: "all per-operation software cycle costs",
		apply: func(p *Params, f float64) {
			p.Model.Costs = p.Model.Costs.ScaleCycles(f)
		},
	},
	{
		Name: "nvmefs.inline_cutover", Layer: "nvmefs", Component: "",
		Doc: "pinned inline-write payload cutover (overrides the link-cost break-even)",
		apply: func(p *Params, f float64) {
			base := nvmefs.WriteCutover(p.Model.PCIe, p.NvmeFS)
			if base <= 0 {
				return // inline path disabled; nothing to dial
			}
			p.NvmeFS.InlineCutover = scaleInt(base, f)
		},
	},
	{
		Name: "wal.group_window", Layer: "wal", Component: "",
		Doc: "group-commit gather window",
		apply: func(p *Params, f float64) {
			p.WAL.GroupWindow = scaleDur(p.WAL.GroupWindow, f)
		},
	},
}
