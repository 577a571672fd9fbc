package main

import (
	"dpc/internal/obs"
)

// layerCounters reads the program's own exported counters — the obs registry
// and the PCIe event stream — at the two ends of the measured phase. Nothing
// is added to the program for this; a layer without a counter has no figure.
type layerCounters struct {
	before, after obs.Snapshot
	inflightPeak  float64
	retries       int64
}

func (lc *layerCounters) start(w *world) {
	reg := w.m.Obs.Registry()
	lc.before = reg.Snapshot(w.m.Eng.Now())
	// Re-arm the in-flight gauge's window peak so it covers only the
	// measured phase, not the pipelined preload.
	reg.Gauge("nvmefs.driver.inflight").DrainPeak()
	lc.retries = -w.driver().Retries
}

func (lc *layerCounters) end(w *world) {
	reg := w.m.Obs.Registry()
	lc.after = reg.Snapshot(w.m.Eng.Now())
	lc.inflightPeak = reg.Gauge("nvmefs.driver.inflight").Peak()
	lc.retries += w.driver().Retries
}

func (lc *layerCounters) delta(name string) float64 {
	return float64(lc.after.Counters[name] - lc.before.Counters[name])
}

// layerMetrics turns one traced rep into the per-layer figures that come
// from the traced run (the probes add the rest). Every one is a count or a
// virtual time, so a second traced rep must reproduce it exactly.
func layerMetrics(sr simResult, lc *layerCounters, tr *tracer) map[string]float64 {
	ops := float64(sr.Measured)
	per := func(v float64) float64 { return v / ops }
	spans := tr.byName()
	span := func(name string) *spanStats {
		if s := spans[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	mean := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n) / 1e3
	}
	var calls, virt int64
	for _, name := range []string{"Backend.ReadPage", "Backend.WritePage", "Backend.ReadPageRange"} {
		calls += span(name).count
		virt += span(name).virtNs
	}

	m := map[string]float64{
		"client.op_p50_us":    sr.LatP50Us,
		"client.read_p50_us":  us(span("File.ReadInto").p50VirtNs),
		"client.write_p50_us": us(span("File.Write").p50VirtNs),
		"client.sync_p50_us":  us(span("File.Sync").p50VirtNs),

		"cache.host.write_full_per_op":       per(lc.delta("cache.host.write_full")),
		"cache.ctl.fills_per_op":             per(lc.delta("cache.ctl.fills")),
		"cache.ctl.flushes_per_op":           per(lc.delta("cache.ctl.flushes")),
		"cache.ctl.evictions_per_op":         per(lc.delta("cache.ctl.evictions")),
		"cache.ctl.prefetches_per_op":        per(lc.delta("cache.ctl.prefetches")),
		"cache.ctl.scan_dmas_per_op":         per(float64(tr.scanDMAs)),
		"cache.ctl.scan_bytes_per_op":        per(float64(tr.scanBytes)),
		"nvmefs.cmds_per_op":                 per(lc.delta("nvmefs.driver.completed")),
		"nvmefs.doorbells_per_op":            per(lc.delta("nvmefs.driver.doorbells")),
		"nvmefs.inflight_peak":               lc.inflightPeak,
		"nvmefs.retries_per_op":              per(float64(lc.retries)),
		"pcie.dmas_per_op":                   per(lc.delta("pcie.link.dmas")),
		"pcie.dma_bytes_per_op":              per(lc.delta("pcie.link.dma_bytes_h2d") + lc.delta("pcie.link.dma_bytes_d2h")),
		"pcie.mmios_per_op":                  per(lc.delta("pcie.link.mmios")),
		"pcie.atomics_per_op":                per(lc.delta("pcie.link.atomics")),
		"cpu.host_execs_per_op":              per(lc.delta("cpu.host-cpu.execs")),
		"cpu.dpu_execs_per_op":               per(lc.delta("cpu.dpu-cpu.execs")),
		"cpu.host_busy_us_per_op":            sr.HostCPUUsPerOp,
		"cpu.dpu_busy_us_per_op":             sr.DPUCPUUsPerOp,
		"dispatch.requests_per_op":           per(lc.delta("dispatch.requests")),
		"dispatch.cache_fills_per_op":        per(lc.delta("dispatch.cache_fills")),
		"wal.commits_per_op":                 per(lc.delta("wal.commits")),
		"wal.bytes_per_op":                   per(lc.delta("wal.bytes")),
		"wal.checkpoints_per_kop":            per(lc.delta("wal.checkpoints")) * 1000,
		"ssd.writes_per_op":                  per(lc.delta("ssd.dev.writes")),
		"ssd.bytes_written_per_op":           per(lc.delta("ssd.dev.bytes_written")),
		"sim.virtual_ms":                     float64(sr.VirtualNs) / 1e6,
		"cache.host.hit_ratio":               0,
		"cache.ctl.backend_calls_per_op":     0,
		"cache.ctl.backend_virt_us_per_call": 0,
		// The one seam that is external on both sides: the submit span is the
		// benchmark's, and so is the handler the driver calls back into.
		"nvmefs.transport_virt_us": mean(span("Driver.Submit").selfNs, span("Driver.Submit").count),
		"nvmefs.handler_virt_us":   mean(span("echo.handler").virtNs, span("Driver.Submit").count),
	}
	if lookups := lc.delta("cache.host.hits") + lc.delta("cache.host.misses"); lookups > 0 {
		m["cache.host.hit_ratio"] = lc.delta("cache.host.hits") / lookups
	}
	return m
}

// submitClosure checks raw_small's seam in integers: every handler span
// must hang under a submit span, so the submit spans' self time plus the
// handler spans' time is the submit spans' time, to the nanosecond.
func submitClosure(tr *tracer) (ok bool, submitNs, selfNs, handlerNs int64) {
	spans := tr.byName()
	sub, h := spans["Driver.Submit"], spans["echo.handler"]
	if sub == nil || h == nil || sub.count != h.count {
		return false, 0, 0, 0
	}
	return sub.selfNs+h.virtNs == sub.virtNs, sub.virtNs, sub.selfNs, h.virtNs
}
