package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpc/internal/sim"
)

// simResult is what one rep measured on the virtual clock. It is
// deterministic: two reps of the same code, seed and scale must agree on
// every field bit for bit.
type simResult struct {
	OpsPerS        float64 `json:"sim_ops_per_s"`
	LatMeanUs      float64 `json:"sim_lat_mean_us"`
	LatP50Us       float64 `json:"sim_lat_p50_us"`
	LatP99Us       float64 `json:"sim_lat_p99_us"`
	HostCPUUsPerOp float64 `json:"sim_host_cpu_us_per_op"`
	DPUCPUUsPerOp  float64 `json:"sim_dpu_cpu_us_per_op"`
	VirtualNs      int64   `json:"virtual_ns"`
	Samples        int     `json:"samples"`
	Measured       int     `json:"ops_measured"`
	Attempted      int     `json:"ops_attempted"`
	Failed         int     `json:"ops_failed"`
	LateMaxUs      float64 `json:"gen_late_max_us"`
}

// hostResult is what one rep cost this process on the sandbox's clock.
type hostResult struct {
	WallUsPerOp     float64 `json:"host_wall_us_per_op"`
	CPUUsPerOp      float64 `json:"host_cpu_us_per_op"`
	AllocsPerOp     float64 `json:"host_allocs_per_op"`
	AllocBytesPerOp float64 `json:"host_alloc_bytes_per_op"`
	SetupS          float64 `json:"setup_s"`
	WallS           float64 `json:"wall_s"`
}

// hostClock is one reading of everything host-side.
type hostClock struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
}

func readHostClock() hostClock {
	var c hostClock
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("bench: getrusage: %v", err))
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.wall = time.Now()
	return c
}

// runRep builds a fresh world, measures the workload's fixed work on it and
// tears it down. lc, when set, reads the program's own counters at the two
// ends of the measured phase, from proc context (the traced run).
func runRep(def *workloadDef, cfg runCfg, lc *layerCounters) (simResult, hostResult) {
	runtime.GC() // the previous rep's world
	t0 := time.Now()
	w := newWorld(def, cfg)
	setup := time.Since(t0)
	defer w.shutdown()

	runtime.GC()
	eng := w.m.Eng
	var begin, end hostClock
	var vBegin, vEnd sim.Time
	var hostBusy, dpuBusy float64
	running := def.procs
	done := sim.NewCond(eng, "bench-done")

	if lc != nil {
		lc.start(w)
	}
	if w.tr != nil {
		w.tr.measuring = true
	}
	w.m.HostCPU.Mark()
	w.m.DPUCPU.Mark()
	vBegin = eng.Now()
	begin = readHostClock()
	w.stage(def.procs, func(p *sim.Proc, tid int) {
		ps := w.procs[tid]
		for i, seq := 0, 0; i+def.opWidth <= len(ps.ops); i, seq = i+def.opWidth, seq+1 {
			issued := p.Now()
			if def.interval > 0 {
				due := vBegin + sim.Time(time.Duration(seq)*def.interval+time.Duration(tid)*def.stagger)
				p.SleepUntil(due)
				if late := int64(p.Now() - due); late > ps.lateMaxNs {
					ps.lateMaxNs = late
				}
				issued = due
			}
			ps.attempted++
			if w.exec(p, ps, ps.ops[i:i+def.opWidth], seq) {
				ps.lat = append(ps.lat, int64(p.Now()-issued))
			} else {
				ps.failed++
			}
		}
		running--
		if running == 0 {
			// The last proc to finish closes the measured phase, from inside
			// the simulation, before any verification traffic starts.
			end = readHostClock()
			vEnd = p.Now()
			elapsed := vEnd.Sub(vBegin).Seconds()
			hostBusy = w.m.HostCPU.CoresUsed() * elapsed
			dpuBusy = w.m.DPUCPU.CoresUsed() * elapsed
			if w.tr != nil {
				w.tr.measuring = false
			}
			if lc != nil {
				lc.end(w)
			}
			done.Broadcast()
		}
		for running > 0 {
			done.Wait(p)
		}
		if w.verify != nil {
			w.verify(p, ps)
		}
	})

	var all []int64
	var sr simResult
	var measured int
	for _, ps := range w.procs {
		all = append(all, ps.lat...)
		measured += len(ps.ops) / def.opWidth
		sr.Attempted += ps.attempted
		sr.Failed += ps.failed
		if us := float64(ps.lateMaxNs) / 1e3; us > sr.LateMaxUs {
			sr.LateMaxUs = us
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var sum int64
	for _, v := range all {
		sum += v
	}
	ops := float64(measured)
	sr.Samples = len(all)
	sr.Measured = measured
	sr.VirtualNs = int64(vEnd - vBegin)
	sr.OpsPerS = ops / vEnd.Sub(vBegin).Seconds()
	if len(all) > 0 {
		sr.LatMeanUs = float64(sum) / float64(len(all)) / 1e3
	}
	sr.LatP50Us = float64(percentile(all, 50)) / 1e3
	sr.LatP99Us = float64(percentile(all, 99)) / 1e3
	sr.HostCPUUsPerOp = hostBusy * 1e6 / ops
	sr.DPUCPUUsPerOp = dpuBusy * 1e6 / ops

	wall := end.wall.Sub(begin.wall)
	hr := hostResult{
		WallUsPerOp:     float64(wall.Nanoseconds()) / 1e3 / ops,
		CPUUsPerOp:      float64((end.cpu - begin.cpu).Nanoseconds()) / 1e3 / ops,
		AllocsPerOp:     float64(end.mem.Mallocs-begin.mem.Mallocs) / ops,
		AllocBytesPerOp: float64(end.mem.TotalAlloc-begin.mem.TotalAlloc) / ops,
		SetupS:          setup.Seconds(),
		WallS:           wall.Seconds(),
	}
	return sr, hr
}

// peakRSSMB is the high-water resident set of this process (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				panic(fmt.Sprintf("bench: VmHWM %q: %v", rest, err))
			}
			return kb / 1024
		}
	}
	panic("bench: no VmHWM in /proc/self/status")
}

// calibrate times a fixed integer spin, so results from machines of
// different speed can be told apart.
func calibrate() int64 {
	best := int64(0)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(t0).Nanoseconds()
		if x == 0 {
			d++ // keep x live
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
