// Command dpcreport renders the artifacts dpcbench writes, or diffs two of
// them. It sniffs the artifact type from the file's top-level JSON keys:
//
//	dpcreport m.json              # metrics snapshot (-metrics-out): counters and
//	                              # gauges by layer, histogram quantiles
//	dpcreport p.json              # profile report (-prof-out): attribution tables
//	dpcreport [-metrics m.json] [-json|-folded] t.json
//	                              # Perfetto trace (-trace-out):
//	                              # critical-path analysis of the span tree
//	dpcreport [view] tl.json      # telemetry timeline (-timeline-out,
//	                              # -fleet-timeline-out): SLOs, violations, dumps
//	dpcreport [-json] A.json B.json
//	                              # diff two artifacts of the same type
//
// The timeline views are -series, -col NAME, -dump N, -tenant N, -tenants and
// -wal. A flag that does not apply to the sniffed type is a usage error.
// All output is deterministic for a given input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/telemetry"
)

var (
	metricsPath = flag.String("metrics", "", "trace: metrics snapshot (dpcbench -metrics-out) for sim time, queue gauges and tracer health")
	jsonOut     = flag.Bool("json", false, "trace or profile diff: print the JSON form instead of tables")
	folded      = flag.Bool("folded", false, "trace: print collapsed stacks (flamegraph.pl / speedscope input)")
	series      = flag.Bool("series", false, "timeline: list every recorded series with min/max")
	col         = flag.String("col", "", "timeline: print one series as time_ns<TAB>value rows")
	dump        = flag.Int("dump", -1, "timeline: show one dump's span tree roots and critical-path report")
	tenant      = flag.Int("tenant", -1, "timeline: list only this tenant's series (t<N>. prefix convention)")
	tenants     = flag.Bool("tenants", false, "timeline: side-by-side per-tenant read-latency and scheduler table")
	walView     = flag.Bool("wal", false, "timeline: WAL group-commit totals, amortization, recovery duration")
)

// applies lists the flags each mode accepts: an artifact type followed by
// " file" for one file or " diff" for two.
var applies = map[string][]string{
	"trace file":    {"metrics", "json", "folded"},
	"timeline file": {"series", "col", "dump", "tenant", "tenants", "wal"},
	"profile diff":  {"json"},
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dpcreport [flags] FILE | dpcreport [-json] A.json B.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		flag.Usage()
		os.Exit(2)
	}
	raw := make([][]byte, flag.NArg())
	var typ string
	for i, path := range flag.Args() {
		b, t, err := load(path)
		if err != nil {
			fail(err)
		}
		raw[i] = b
		if i == 0 {
			typ = t
		}
	}
	mode := typ + " file"
	if len(raw) == 2 {
		mode = typ + " diff"
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(applies[mode], f.Name) {
			fmt.Fprintf(os.Stderr, "dpcreport: -%s does not apply to a %s\n", f.Name, mode)
			os.Exit(2)
		}
	})

	var err error
	if len(raw) == 2 {
		var out string
		if out, err = diffFiles(raw[0], raw[1], *jsonOut); err == nil {
			fmt.Print(out)
		}
	} else if err = report(typ, raw[0]); err != nil {
		err = fmt.Errorf("%s: %w", flag.Arg(0), err)
	}
	if err != nil {
		fail(err)
	}
}

// load reads an artifact file and sniffs its type.
func load(path string) ([]byte, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	typ, err := artifactType(raw)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return raw, typ, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dpcreport:", err)
	os.Exit(1)
}

// artifactType names the artifact from its top-level keys: "profile",
// "metrics", "timeline" or "trace".
func artifactType(raw []byte) (string, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return "", err
	}
	has := func(k string) bool { _, ok := keys[k]; return ok }
	switch {
	case has("components") && has("ops"):
		return "profile", nil
	case has("counters"):
		return "metrics", nil
	case has("series") && has("slos"):
		return "timeline", nil
	case has("traceEvents"):
		return "trace", nil
	}
	return "", fmt.Errorf("not a recognized artifact (profile report, metrics snapshot, telemetry timeline or Perfetto trace)")
}

// decode unmarshals raw into the type its writer encodes.
func decode[T any](raw []byte) (*T, error) {
	v := new(T)
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	return v, nil
}

// report renders one artifact of type typ to stdout.
func report(typ string, raw []byte) error {
	switch typ {
	case "metrics":
		s, err := decode[obs.Snapshot](raw)
		if err != nil {
			return err
		}
		render(os.Stdout, *s)
	case "profile":
		rep, err := decode[prof.Report](raw)
		if err != nil {
			return err
		}
		fmt.Print(rep.Text())
	case "trace":
		return showTrace(raw)
	case "timeline":
		tl, err := decode[telemetry.Timeline](raw)
		if err != nil {
			return err
		}
		return showTimeline(tl)
	}
	return nil
}
