// Command dpcbench is this repository's benchmark: four fixed-work
// workloads over the simulated host+DPU file-system client, measured on two
// clocks — the modelled machine's virtual time (sim_*, deterministic) and
// this Go process's cost on the sandbox (host_*, noisy). See README.md.
//
// Run it through run.sh from the checkout root:
//
//	bash bench/run.sh                                  every workload, table + bench/out/result.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                   one run; the last line of output is the result
//	bash bench/run.sh -compare A.json B.json           verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	reps     int
	ablate   string
	outDir   string
}

// result is the contract's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run of one workload produced.
type record struct {
	result
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Ablate   string  `json:"ablate,omitempty"`
	// Reps holds the per-rep values behind every host-clock median.
	Reps map[string][]float64 `json:"reps,omitempty"`
	// Exact names the per-layer metrics that come from the traced run and so
	// repeat exactly; the rest are host-time probes.
	Exact []string `json:"exact,omitempty"`
	// Sim is the virtual-clock result every rep agreed on.
	Sim            *simResult `json:"sim,omitempty"`
	SimRepeatExact bool       `json:"sim_repeat_exact"`
	FirstDiff      string     `json:"first_diff,omitempty"`
	Env            env        `json:"env"`
}

// env tells results from different machines apart.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CalibNs    int64  `json:"calib_ns"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with its result line (default: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same offsets and payloads")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure for at least this long: fixed-work reps repeat until it has passed (default run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer probes")
	fs.Float64Var(&o.scale, "scale", 1, "multiply every op count (0.01 = smoke test)")
	fs.IntVar(&o.reps, "reps", 0, "exact number of timed reps (default: at least 3, until -seconds has passed)")
	fs.StringVar(&o.ablate, "ablate", "", "sensitivity check: turn off flush, cache, wal or prefetch through its existing public option")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for result.json and trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintln(stderr, "bench: unexpected arguments", fs.Args())
		return 2
	case o.workload == "":
		return runAll(spec, o, stdout, stderr)
	}
	def := findWorkload(o.workload)
	if def == nil || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "bench: unknown workload %q or trace %d\n", o.workload, o.trace)
		return 2
	}
	rec, err := runOne(spec, def, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// The full record first, the contract's result as the last line.
	full, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record %s\n", full)
	last, _ := json.Marshal(rec.result)
	fmt.Fprintf(stdout, "%s\n", last)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runOne measures one workload in this process.
func runOne(spec *benchSpec, def *workloadDef, o options, out io.Writer) (*record, error) {
	rec := &record{Workload: def.name, Trace: o.trace, Seed: o.seed, Scale: o.scale, Ablate: o.ablate,
		Env: env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CalibNs: calibrate()}}
	fmt.Fprintf(out, "== %s  seed=%d scale=%g trace=%d %s gomaxprocs=%d nproc=%d calib_ns=%d\n",
		def.name, o.seed, o.scale, o.trace, rec.Env.GoVersion, rec.Env.GOMAXPROCS, rec.Env.NProc, rec.Env.CalibNs)
	var vals map[string]float64
	var specs []metricSpec
	var err error
	if o.trace == 0 {
		specs = spec.EndToEnd
		vals = runTimed(def, o, rec, out)
	} else {
		specs = spec.PerLayer
		vals, err = runTraced(def, o, rec, out)
		if err != nil {
			return nil, err
		}
	}
	if rec.Metrics, err = fill(specs, vals); err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && rec.SimRepeatExact
	for _, s := range specs {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf(", regression beyond %g %%", s.Bound*100)
		}
		fmt.Fprintf(out, "  %-38s %16.6g %-6s (%s is better%s)\n", s.Name, vals[s.Name], s.Unit, s.Better, bound)
	}
	fmt.Fprintf(out, "  ops_attempted=%d ops_failed=%d sim_repeat_exact=%v\n", rec.Attempted, rec.Failed, rec.SimRepeatExact)
	if !rec.SimRepeatExact {
		fmt.Fprintf(out, "  NOT REPEATABLE: %s\n", rec.FirstDiff)
	}
	return rec, nil
}

// runTimed is the tracing-off run: fixed-work reps on freshly built worlds
// with the same seed, until -seconds of measuring has passed. Virtual-clock
// results must be identical across the reps; host-clock results are the
// median over them.
func runTimed(def *workloadDef, o options, rec *record, out io.Writer) map[string]float64 {
	cfg := runCfg{seed: o.seed, scale: o.scale, ablate: o.ablate}
	rec.Reps = map[string][]float64{}
	rec.SimRepeatExact = true
	var measured float64
	for r := 0; (o.reps > 0 && r < o.reps) || (o.reps <= 0 && (r < 3 || measured < o.seconds)); r++ {
		sr, hr := runRep(def, cfg, nil)
		measured += hr.WallS
		if rec.Sim == nil {
			rec.Sim = &sr
		} else if d := firstDiff(*rec.Sim, sr); d != "" && rec.SimRepeatExact {
			rec.SimRepeatExact, rec.FirstDiff = false, fmt.Sprintf("rep %d: %s", r, d)
		}
		rec.Attempted += sr.Attempted
		rec.Failed += sr.Failed
		hv := reflect.ValueOf(hr)
		for i := 0; i < hv.NumField(); i++ {
			name := hv.Type().Field(i).Tag.Get("json")
			rec.Reps[name] = append(rec.Reps[name], hv.Field(i).Float())
		}
		fmt.Fprintf(out, "  rep %d: setup %.3f s, measured %.3f s, %.3f us/op wall, %d/%d ops ok\n",
			r, hr.SetupS, hr.WallS, hr.WallUsPerOp, sr.Samples, sr.Attempted)
	}
	s := rec.Sim
	walls := rec.Reps["host_wall_us_per_op"]
	fmt.Fprintf(out, "  %d reps; host_wall_us_per_op spread (max-min)/median = %.2f %%; %d latency samples, %d beyond p99; p50 %.3f us; open-loop generator at most %.3f us late\n",
		len(walls), relSpread(walls)*100, s.Samples, s.Samples/100, s.LatP50Us, s.LateMaxUs)
	fmt.Fprintf(out, "  modelled CPU per op: host %.4f us, DPU %.4f us (per-layer metrics cpu.*_busy_us_per_op)\n", s.HostCPUUsPerOp, s.DPUCPUUsPerOp)
	return map[string]float64{
		"sim_ops_per_s":           s.OpsPerS,
		"sim_lat_mean_us":         s.LatMeanUs,
		"sim_lat_p99_us":          s.LatP99Us,
		"host_wall_us_per_op":     median(rec.Reps["host_wall_us_per_op"]),
		"host_cpu_us_per_op":      median(rec.Reps["host_cpu_us_per_op"]),
		"host_allocs_per_op":      median(rec.Reps["host_allocs_per_op"]),
		"host_alloc_bytes_per_op": median(rec.Reps["host_alloc_bytes_per_op"]),
		"host_peak_rss_mb":        peakRSSMB(),
		"setup_s":                 median(rec.Reps["setup_s"]),
	}
}

// tracedFraction is how much of a timed rep's work the traced run repeats.
const tracedFraction = 0.25

// runTraced is the separate traced run: a quarter-length rep with tracing
// off (the overhead baseline), two with the program's obs registry, the PCIe
// listener and the benchmark's span recorder on (they must agree on every
// count), then the layer probes.
func runTraced(def *workloadDef, o options, rec *record, out io.Writer) (map[string]float64, error) {
	cfg := runCfg{seed: o.seed, scale: o.scale * tracedFraction, ablate: o.ablate}
	_, plain := runRep(def, cfg, nil)

	var vals map[string]float64
	var traced hostResult
	rec.SimRepeatExact = true
	for r := 0; r < 2; r++ {
		cfg.tr = newTracer()
		lc := &layerCounters{}
		sr, hr := runRep(def, cfg, lc)
		rec.Attempted += sr.Attempted
		rec.Failed += sr.Failed
		got := layerMetrics(sr, lc, cfg.tr)
		if r == 0 {
			vals, traced, rec.Sim = got, hr, &sr
			continue
		}
		for _, s := range sortedKeys(got) {
			if got[s] != vals[s] && rec.SimRepeatExact {
				rec.SimRepeatExact, rec.FirstDiff = false, fmt.Sprintf("traced rep %d: %s %v != %v", r, s, got[s], vals[s])
			}
		}
	}
	if def.name == "raw_small" {
		ok, sub, self, h := submitClosure(cfg.tr)
		fmt.Fprintf(out, "  seam closure: Driver.Submit %d ns = transport self %d ns + handler %d ns: %v\n", sub, self, h, ok)
		if !ok {
			return nil, fmt.Errorf("raw_small: handler spans do not close under submit spans")
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.outDir, "trace-"+def.name+".json")
	if err := cfg.tr.writeFile(path, def.name, o.seed); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(cfg.tr.spans), path)

	rec.Exact = sortedKeys(vals)
	vals["obs.host_overhead_ratio"] = traced.CPUUsPerOp / plain.CPUUsPerOp
	for name, v := range runProbes(o.scale) {
		vals[name] = v
	}
	return vals, nil
}

// firstDiff names the first field two virtual-clock results disagree on.
func firstDiff(a, b simResult) string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		if x, y := av.Field(i).Interface(), bv.Field(i).Interface(); x != y {
			return fmt.Sprintf("%s %v != %v", av.Type().Field(i).Tag.Get("json"), y, x)
		}
	}
	return ""
}

// resultFile is bench/out/result.json: every workload's two records.
type resultFile struct {
	Seed     int64              `json:"seed"`
	Timed    map[string]*record `json:"timed"`
	PerLayer map[string]*record `json:"per_layer"`
}

// runAll runs every workload, each run in a child process of its own (one
// simulation at a time, default GOMAXPROCS, a peak RSS that belongs to that
// workload alone), and gathers the records.
func runAll(spec *benchSpec, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := resultFile{Seed: o.seed, Timed: map[string]*record{}, PerLayer: map[string]*record{}}
	status := 0
	for _, w := range spec.Workloads {
		for trace, into := range []map[string]*record{res.Timed, res.PerLayer} {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(o.scale), "-reps", fmt.Sprint(o.reps), "-out", o.outDir}
			if o.ablate != "" {
				args = append(args, "-ablate", o.ablate)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			var rec *record
			for _, line := range strings.Split(string(raw), "\n") {
				if rest, ok := strings.CutPrefix(line, "record "); ok {
					rec = &record{}
					if jerr := json.Unmarshal([]byte(rest), rec); jerr != nil {
						rec, err = nil, jerr
					}
				} else if !strings.HasPrefix(line, "{") {
					fmt.Fprintln(stdout, line)
				}
			}
			if err != nil || rec == nil {
				fmt.Fprintf(stderr, "bench: %s trace=%d: %v\n", w.Name, trace, err)
				status = 1
			}
			if rec != nil {
				into[w.Name] = rec
			}
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	raw, _ := json.MarshalIndent(res, "", " ")
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	return status
}
