package main

import (
	"fmt"
	"math/rand"
	"time"

	"dpc"
	"dpc/internal/sim"
	"dpc/internal/world"
)

// largeIOReport is the large-I/O half of BENCH_5: sequential 1 MiB direct
// reads over a 32 MiB file, run twice — once with the submission window
// forced to 1 (the pre-pipeline serial path: one doorbell MMIO per MaxIO
// chunk) and once with the driver's default in-flight window, where each
// burst of chunks rides a single doorbell.
type largeIOReport struct {
	Workload  string        `json:"workload"`
	OpBytes   int           `json:"op_bytes"`
	Serial    largeIOResult `json:"serial"`
	Pipelined largeIOResult `json:"pipelined"`
	// DoorbellDrop is serial MMIOs-per-op over pipelined MMIOs-per-op
	// (the acceptance bar is >= 4x); Speedup compares simulated
	// read-phase wall time.
	DoorbellDrop float64 `json:"doorbell_drop"`
	Speedup      float64 `json:"speedup"`
}

func buildLargeIOReport() (largeIOReport, error) {
	const (
		opSize = 1 << 20
		ops    = 32
	)
	report := largeIOReport{Workload: "sequential-direct-read", OpBytes: opSize}
	var err error
	if report.Serial, err = largeIORun(1, opSize, ops); err != nil {
		return report, err
	}
	if report.Pipelined, err = largeIORun(0, opSize, ops); err != nil {
		return report, err
	}
	if report.Pipelined.MMIOsPerOp > 0 {
		report.DoorbellDrop = report.Serial.MMIOsPerOp / report.Pipelined.MMIOsPerOp
	}
	if report.Pipelined.ElapsedNS > 0 {
		report.Speedup = float64(report.Serial.ElapsedNS) / float64(report.Pipelined.ElapsedNS)
	}
	return report, nil
}

type largeIOResult struct {
	Window         int     `json:"window"`
	Ops            int     `json:"ops"`
	Bytes          int64   `json:"bytes"`
	ElapsedNS      int64   `json:"elapsed_ns"`
	MMIOs          int64   `json:"mmios"`
	MMIOsPerOp     float64 `json:"mmios_per_op"`
	ThroughputMiBs float64 `json:"throughput_mib_s"`
}

// largeIORun builds a fresh system, writes the file with direct I/O, then
// measures the sequential direct-read phase. window 0 keeps the driver's
// default in-flight window; window 1 forces serial submission.
func largeIORun(window, opSize, ops int) (largeIOResult, error) {
	sys := world.NewSystem(func(o *dpc.Options) {
		if window > 0 {
			o.NvmeFS.InflightWindow = window
		}
	})
	cl := sys.KVFSClient()

	payload := make([]byte, opSize)
	rand.New(rand.NewSource(7)).Read(payload)

	res := largeIOResult{Window: window, Ops: ops}
	if window == 0 {
		res.Window = sys.Driver.Window()
	}
	var err error
	sys.Go(func(p *sim.Proc) {
		var f *dpc.File
		if f, err = cl.Create(p, 0, "/large.dat"); err != nil {
			return
		}
		for i := 0; i < ops; i++ {
			if err = f.Write(p, 0, uint64(i*opSize), payload, true); err != nil {
				return
			}
		}
		sys.M.PCIe.MMIOs.Mark()
		start := p.Now()
		for i := 0; i < ops; i++ {
			var data []byte
			if data, err = f.Read(p, 0, uint64(i*opSize), opSize, true); err != nil {
				return
			}
			res.Bytes += int64(len(data))
		}
		res.ElapsedNS = int64(p.Now() - start)
		res.MMIOs = sys.M.PCIe.MMIOs.Delta()
	})
	sys.RunFor(time.Minute)
	sys.Shutdown()
	if err != nil {
		return res, fmt.Errorf("largeio window %d: %w", window, err)
	}

	res.MMIOsPerOp = float64(res.MMIOs) / float64(ops)
	if res.ElapsedNS > 0 {
		res.ThroughputMiBs = float64(res.Bytes) / (1 << 20) / (float64(res.ElapsedNS) / 1e9)
	}
	return res, nil
}
