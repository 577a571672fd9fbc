package main

import (
	"bytes"
	"fmt"
	"time"

	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
	"dpc/internal/world"
)

// runSmallIOScenario is the -smallio-out workload: transport-level direct
// write+read pairs at 64/128/256/512 bytes over nvme-fs with a RAM-backed
// handler (world.NewNvmeEcho), each size run twice — once with
// the inline path disabled (every payload rides DMA: four transfers per
// command) and once with InlineMax 512, where small writes are PIO'd into the
// DPU inline window and small reads ride back inside an enlarged CQE. The
// handler is free on purpose: end-to-end KVFS latency is dominated by the
// simulated remote KV backend (~100 us/op), so isolating the transport is
// what makes the paper's small-I/O client win visible, exactly like the
// Figure 2(b) walks. The JSON report captures the per-op latency / DMA-count
// step change plus a profiled attribution pair showing the dma component
// collapsing, and is byte-stable across runs so it can be committed as
// BENCH_6.
func runSmallIOScenario(outPath string) error {
	report, err := writeReport(outPath, buildSmallIOReport)
	if err != nil {
		return err
	}
	s := report.Sizes[2] // 256 B: the size the attribution pair profiles
	fmt.Printf("wrote small-I/O report to %s (%dB: %.0f -> %.0f ns/op, %.2fx; DMAs/op %.1f -> %.1f; dma ns/op %d -> %d)\n",
		outPath, s.OpBytes, s.DMA.NsPerOp, s.Inline.NsPerOp, s.LatencyDrop,
		s.DMA.DMAsPerOp, s.Inline.DMAsPerOp,
		report.Attribution.DMA.DMANsPerOp, report.Attribution.Inline.DMANsPerOp)
	return nil
}

// smallIOReport is the BENCH_6 shape.
type smallIOReport struct {
	Workload string `json:"workload"`
	// DMASetupNs documents the harness's DPU-class per-descriptor cost; see
	// smallIODMASetupNs.
	DMASetupNs int           `json:"dma_setup_ns"`
	Sizes      []smallIOSize `json:"sizes"`
	// Attribution is the profiled pair at 256 B: where critical-path time
	// goes with the inline path off vs on. The acceptance bar is the dma
	// component collapsing, not merely shrinking.
	Attribution smallIOAttr `json:"attribution"`
}

type smallIOSize struct {
	OpBytes int        `json:"op_bytes"`
	DMA     smallIORun `json:"dma_path"`
	Inline  smallIORun `json:"inline_path"`
	// LatencyDrop is DMA-path ns/op over inline-path ns/op; IOPSGain is the
	// same ratio seen from the throughput side.
	LatencyDrop float64 `json:"latency_drop"`
	IOPSGain    float64 `json:"iops_gain"`
}

type smallIORun struct {
	InlineMax    int     `json:"inline_max"`
	Ops          int     `json:"ops"`
	Bytes        int64   `json:"bytes"`
	ElapsedNS    int64   `json:"elapsed_ns"`
	NsPerOp      float64 `json:"ns_per_op"`
	IOPS         float64 `json:"iops"`
	DMAs         int64   `json:"dmas"`
	DMAsPerOp    float64 `json:"dmas_per_op"`
	PIOs         int64   `json:"pios"`
	MMIOs        int64   `json:"mmios"`
	InlineWrites int64   `json:"inline_writes"`
	InlineReads  int64   `json:"inline_reads"`
}

const (
	smallIOOps    = 64 // measured write+read pairs per run
	smallIOWarmup = 8  // pairs before the mark (see measureSmallIO)
)

func buildSmallIOReport() (smallIOReport, error) {
	report := smallIOReport{Workload: "small-op-direct", DMASetupNs: smallIODMASetupNs}
	measure := func(inlineMax, size int) (smallIORun, error) {
		m, d := smallIODriver(inlineMax, nil)
		return measureSmallIO(m, d, inlineMax, size)
	}
	var err error
	for _, size := range []int{64, 128, 256, 512} {
		s := smallIOSize{OpBytes: size}
		if s.DMA, err = measure(0, size); err != nil {
			return report, err
		}
		if s.Inline, err = measure(512, size); err != nil {
			return report, err
		}
		if s.Inline.NsPerOp > 0 {
			s.LatencyDrop = s.DMA.NsPerOp / s.Inline.NsPerOp
		}
		if s.DMA.IOPS > 0 {
			s.IOPSGain = s.Inline.IOPS / s.DMA.IOPS
		}
		report.Sizes = append(report.Sizes, s)
	}
	report.Attribution.OpBytes = 256
	if report.Attribution.DMA, err = smallIOProfile(0, 256); err != nil {
		return report, err
	}
	if report.Attribution.Inline, err = smallIOProfile(512, 256); err != nil {
		return report, err
	}
	if report.Attribution.Inline.DMANsPerOp > 0 {
		report.Attribution.DMADrop = float64(report.Attribution.DMA.DMANsPerOp) /
			float64(report.Attribution.Inline.DMANsPerOp)
	}
	return report, nil
}

// smallIODMASetupNs is the per-descriptor DMA setup cost the harness models:
// a DPU-class engine driven from ARM cores, where programming a descriptor
// and waiting for the engine costs microseconds — the paper's motivation for
// inlining small payloads at all. The testbed default (200 ns) models a
// host-NIC-class engine, under which the dma component is a rounding error
// on a small op and no inline/DMA tradeoff exists to measure.
const smallIODMASetupNs = 1500

// smallIODriver builds the transport harness: one nvme-fs queue against a
// handler that serves from DPU RAM with no simulated backend time.
func smallIODriver(inlineMax int, o *obs.Obs) (*model.Machine, *nvmefs.Driver) {
	cfg := model.Default()
	cfg.PCIe.DMASetup = smallIODMASetupNs * time.Nanosecond
	cfg.Obs = o
	return world.NewNvmeEcho(cfg, nvmefs.Config{
		Queues: 1, Depth: 64, SlotsPerQ: 32, MaxIO: 1 << 20, RHCap: 256,
		InlineMax: inlineMax,
	}, world.StoreRAM)
}

// measureSmallIO runs warm-up pairs on the transport, then measures
// smallIOOps serial write+read pairs so ns/op is true per-op transport
// latency. The inline cutover is fixed from the start, so the warm-up has
// nothing to settle; it stays because removing it would move BENCH_6.
func measureSmallIO(m *model.Machine, d *nvmefs.Driver, inlineMax, size int) (smallIORun, error) {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*7 + size)
	}
	res := smallIORun{InlineMax: inlineMax, Ops: 2 * smallIOOps}
	var err error
	m.Eng.Go("smallio", func(p *sim.Proc) {
		hdr := make([]byte, 16)
		pair := func() error {
			data, err := world.EchoPair(p, d, hdr, payload)
			if err == nil && !bytes.Equal(data, payload) {
				err = fmt.Errorf("read back %d bytes that differ from the %d written", len(data), size)
			}
			return err
		}
		for i := 0; i < smallIOWarmup; i++ {
			if err = pair(); err != nil {
				return
			}
		}
		m.PCIe.Mark()
		iw, ir := d.InlineWrites, d.InlineReads
		start := p.Now()
		for i := 0; i < smallIOOps; i++ {
			if err = pair(); err != nil {
				return
			}
			res.Bytes += 2 * int64(size)
		}
		res.ElapsedNS = int64(p.Now() - start)
		res.DMAs = m.PCIe.DMAs.Delta()
		res.PIOs = m.PCIe.PIOs.Delta()
		res.MMIOs = m.PCIe.MMIOs.Delta()
		res.InlineWrites = d.InlineWrites - iw
		res.InlineReads = d.InlineReads - ir
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if err != nil {
		return res, fmt.Errorf("smallio %d B, inline max %d: %w", size, inlineMax, err)
	}

	res.NsPerOp = float64(res.ElapsedNS) / float64(res.Ops)
	res.DMAsPerOp = float64(res.DMAs) / float64(res.Ops)
	if res.ElapsedNS > 0 {
		res.IOPS = float64(res.Ops) / (float64(res.ElapsedNS) / 1e9)
	}
	return res, nil
}

// smallIOAttr pairs the profiled critical-path attribution of the two modes.
type smallIOAttr struct {
	OpBytes int              `json:"op_bytes"`
	DMA     smallIOAttrStats `json:"dma_path"`
	Inline  smallIOAttrStats `json:"inline_path"`
	// DMADrop is DMA-path dma-ns-per-op over inline-path dma-ns-per-op.
	DMADrop float64 `json:"dma_ns_drop"`
}

type smallIOAttrStats struct {
	InlineMax int `json:"inline_max"`
	Roots     int `json:"ops"`
	// ComponentsNs is critical-path time per component summed over the op
	// root spans (dma, mmio, wait, cpu, ...).
	ComponentsNs map[string]int64 `json:"components_ns"`
	DMANsPerOp   int64            `json:"dma_ns_per_op"`
	DMAShare     float64          `json:"dma_share"`
}

// smallIOProfile runs a shorter profiled batch and rolls the op root spans'
// critical-path attribution up by component.
func smallIOProfile(inlineMax, size int) (smallIOAttrStats, error) {
	o := obs.New()
	m, d := smallIODriver(inlineMax, o)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*3 + size)
	}
	var err error
	m.Eng.Go("smallio-prof", func(p *sim.Proc) {
		hdr := make([]byte, 16)
		for i := 0; i < smallIOWarmup && err == nil; i++ {
			_, err = world.EchoPair(p, d, hdr, payload)
		}
		for i := 0; i < 16 && err == nil; i++ {
			ws := o.Begin(p, "smallio.write")
			w := d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: payload})
			ws.End(p)
			rs := o.Begin(p, "smallio.read")
			r := d.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpRead, Header: hdr, RHLen: 1, ReadLen: size})
			rs.End(p)
			if !w.OK() || !r.OK() {
				err = fmt.Errorf("write status %s, read status %s", nvme.StatusString(w.Status), nvme.StatusString(r.Status))
			}
		}
	})
	m.Eng.Run()
	now := m.Eng.Now()
	pr := prof.Analyze(o.Tracer().Export(now))
	rep := prof.BuildReport(pr, int64(now), 0, 0, 0)
	m.Eng.Shutdown()
	if err != nil {
		return smallIOAttrStats{}, fmt.Errorf("smallio profile, inline max %d: %w", inlineMax, err)
	}

	stats := smallIOAttrStats{InlineMax: inlineMax, ComponentsNs: map[string]int64{}}
	var total int64
	for _, op := range rep.Ops {
		if op.Op != "smallio.write" && op.Op != "smallio.read" {
			continue
		}
		stats.Roots += int(op.Count)
		for comp, ns := range op.Attr {
			stats.ComponentsNs[comp] += ns
			total += ns
		}
	}
	if stats.Roots > 0 {
		stats.DMANsPerOp = stats.ComponentsNs["dma"] / int64(stats.Roots)
	}
	if total > 0 {
		stats.DMAShare = float64(stats.ComponentsNs["dma"]) / float64(total)
	}
	return stats, nil
}
