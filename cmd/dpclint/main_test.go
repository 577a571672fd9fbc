package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// lintSource counts the metric-name and bare-suppression findings in src.
func lintSource(t *testing.T, src string) int {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	s := source{path: "x.go", f: f}
	var bare int
	s.ok, bare = suppressions(fset, s)
	return lintNames(fset, s) + bare
}

// lintFiles writes files (path -> source) under a fresh root and lints it.
func lintFiles(t *testing.T, files map[string]string) findings {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := lintTree([]string{root})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLintAcceptsConstantNames(t *testing.T) {
	src := `package x
func f(o O) {
	o.Counter("client.read.ops")
	o.Gauge("cache" + ".hit_ratio")
	o.Histogram(("client.read.latency"))
}
`
	if n := lintSource(t, src); n != 0 {
		t.Errorf("constant names flagged: %d findings", n)
	}
}

func TestLintAcceptsQueueConvention(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, qid int) {
	o.Gauge(fmt.Sprintf("nvmefs.q%d.sq_depth", qid))
}
`
	if n := lintSource(t, src); n != 0 {
		t.Errorf("q%%d convention flagged: %d findings", n)
	}
}

func TestLintAcceptsTenantConvention(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, tid, qid int) {
	o.Histogram(fmt.Sprintf("t%d.client.read.latency", tid))
	o.Counter(fmt.Sprintf("nvmefs.t%d.shed", tid))
	o.Gauge(fmt.Sprintf("dispatch.t%d.bytes", tid))
	o.Gauge(fmt.Sprintf("nvmefs.t%d.q%d.depth", tid, qid))
}
`
	if n := lintSource(t, src); n != 0 {
		t.Errorf("t%%d convention flagged: %d findings", n)
	}
}

func TestLintAcceptsWhatifConvention(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, workload, param string) {
	o.Gauge(fmt.Sprintf("whatif.%s.%s.halving_gain", workload, param))
	o.Counter(fmt.Sprintf("whatif.%s.runs", workload))
}
`
	if n := lintSource(t, src); n != 0 {
		t.Errorf("whatif convention flagged: %d findings", n)
	}
}

func TestLintRejectsMalformedWhatifNames(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, workload, param string, i int) {
	o.Gauge(fmt.Sprintf("whatif.x%s.gain", param))
	o.Gauge(fmt.Sprintf("whatif.%s_gain", param))
	o.Counter(fmt.Sprintf("whatif.%d.runs", i))
	o.Counter(fmt.Sprintf("whatifs.%s.runs", workload))
}
`
	if n := lintSource(t, src); n != 4 {
		t.Errorf("malformed whatif names: %d findings, want 4", n)
	}
}

func TestLintRejectsNonTenantVerbs(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, tid int, name string) {
	o.Counter(fmt.Sprintf("tenant%d.ops", tid))
	o.Histogram(fmt.Sprintf("t%s.client.read.latency", name))
	o.Gauge(fmt.Sprintf("t%03d.queued", tid))
	o.Counter(fmt.Sprintf("%d.shed", tid))
}
`
	if n := lintSource(t, src); n != 4 {
		t.Errorf("non-tenant verbs: %d findings, want 4", n)
	}
}

// Publishing a component-owned counter names a metric like a registration
// does, so it is held to the same rule.
func TestLintGuardsPublish(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, c *C, name string, tid, shard int) {
	o.Publish("cache.host.hits", c.Hits.Loc())
	o.Publish(fmt.Sprintf("nvmefs.t%d.shed", tid), &c.shed)
	o.Publish(name, &c.n)
	o.Publish(fmt.Sprintf("shard%d.ops", shard), &c.n)
	o.Publish("fault.injected."+name, &c.n) // closed enum //dpclint:ok
}
`
	if n := lintSource(t, src); n != 2 {
		t.Errorf("Publish: %d findings, want 2 (the bare name and the shard%%d form)", n)
	}
}

func TestLintRejectsDynamicNames(t *testing.T) {
	src := `package x
import "fmt"
func f(o O, name string, i int) {
	o.Counter(name)
	o.Gauge("prefix." + name)
	o.Histogram(fmt.Sprintf("op.%s.latency", name))
	o.Counter(fmt.Sprintf("shard%d.ops", i))
	o.Counter(fmt.Sprintf("static.no.verbs"))
}
`
	if n := lintSource(t, src); n != 5 {
		t.Errorf("dynamic names: %d findings, want 5", n)
	}
}

func TestLintSuppression(t *testing.T) {
	src := `package x
func f(o O, name string) {
	o.Counter(name) //dpclint:ok registry-enumerated
	// registry-enumerated //dpclint:ok
	o.Gauge(name)
	o.Histogram(name)
}
`
	if n := lintSource(t, src); n != 1 {
		t.Errorf("suppressed file: %d findings, want 1 (the unsuppressed Histogram)", n)
	}
}

// A suppression without a reason is a finding of its own and suppresses
// nothing.
func TestLintBareSuppression(t *testing.T) {
	src := `package x
func f(o O, name string) {
	o.Counter(name) //dpclint:ok
	o.Gauge(name) // /* */ //dpclint:ok
}
`
	if n := lintSource(t, src); n != 4 {
		t.Errorf("bare suppressions: %d findings, want 4 (two markers, two names)", n)
	}
}

func TestLintIgnoresOtherCalls(t *testing.T) {
	src := `package x
func f(m M, name string) {
	m.Lookup(name)
	m.LookupHistogram(name)
	println(name)
}
`
	if n := lintSource(t, src); n != 0 {
		t.Errorf("non-metric calls flagged: %d findings", n)
	}
}

// TestLintKnobs runs the config-field rule over small module trees: package a
// declares the struct, the other files are its would-be callers.
func TestLintKnobs(t *testing.T) {
	const decl = `package a

type Config struct {
	Knob  int
	Inner SubConfig
	local int
}

type SubConfig struct{ Depth int }

func DefaultConfig() Config { return Config{Knob: 1, Inner: SubConfig{Depth: 2}, local: 3} }
`
	cases := []struct {
		name  string
		files map[string]string
		want  int
	}{
		{"set only by its package's default", map[string]string{
			"a/a.go": decl,
		}, 3},
		{"set from another package", map[string]string{
			"a/a.go": decl,
			"b/b.go": `package b
func f() {
	c := a.DefaultConfig()
	c.Knob = 2
	_ = a.Config{Inner: a.SubConfig{Depth: 4}}
}
`,
		}, 0},
		{"parent set only through opts.X.Y", map[string]string{
			"a/a.go": decl,
			"b/b.go": `package b
func f(opts *Options) {
	opts.Cfg.Knob = 2
	opts.Cfg.Inner.Depth = 4
}
`,
		}, 0},
		{"set only in a test file", map[string]string{
			"a/a.go": decl,
			"b/b_test.go": `package b
func f(c *a.Config) { c.Knob, c.Inner.Depth = 2, 4 }
`,
		}, 3},
		{"params struct skipped", map[string]string{
			"a/a.go": `package a

// Config is a calibration surface.
//
//dpclint:params
type Config struct{ Knob int }

type (
	// SubConfig too.
	//
	//dpclint:params
	SubConfig struct{ Depth int }
)
`,
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := lintFiles(t, tc.files); n.knobs != tc.want {
				t.Errorf("%d knobs, want %d", n.knobs, tc.want)
			}
		})
	}
}

// TestLintCallers runs the exported-func rule over small module trees:
// package a declares, the other files are its would-be callers.
func TestLintCallers(t *testing.T) {
	const decl = `package a

type T struct{}

// Shower is an interface the tree declares.
type Shower interface{ Show() }

func Helper() int { return 1 }
`
	cases := []struct {
		name          string
		files         map[string]string
		callers, bare int
	}{
		{"called only from a test file", map[string]string{
			"a/a.go":      decl,
			"a/a_test.go": "package a\nvar _ = Helper()\n",
		}, 1, 0},
		{"called from another package", map[string]string{
			"a/a.go": decl,
			"b/b.go": "package b\nvar _ = a.Helper()\n",
		}, 0, 0},
		{"called from bench/", map[string]string{
			"a/a.go":           decl,
			"bench/measure.go": "package main\nvar _ = a.Helper()\n",
		}, 0, 0},
		{"a standard-library interface method", map[string]string{
			"a/a.go": decl + "var _ = Helper\nfunc (T) MarshalJSON() ([]byte, error) { return nil, nil }\n",
		}, 0, 0},
		{"a method an in-tree interface names", map[string]string{
			"a/a.go": decl + "var _ = Helper\nfunc (*T) Show() {}\n",
		}, 0, 0},
		{"a plain func is not exempt by an interface", map[string]string{
			"a/a.go": decl + "var _ = Helper\nfunc Show() {}\nfunc (T) String() string { return \"\" }\n",
		}, 1, 0},
		{"named only as a struct field and a literal key", map[string]string{
			"a/a.go": decl + "var _ = Helper\n\n// Inflight counts.\nfunc (T) Inflight() int { return 0 }\n",
			"b/b.go": "package b\n\ntype Stats struct{ Inflight int }\n\nvar _ = Stats{Inflight: 1}\n",
		}, 1, 0},
		{"named by a selector", map[string]string{
			"a/a.go": decl + "var _ = Helper\n\n// Inflight counts.\nfunc (T) Inflight() int { return 0 }\n",
			"b/b.go": "package b\n\nvar _ = a.T{}.Inflight\n",
		}, 0, 0},
		{"a reasoned suppression", map[string]string{
			"a/a.go": decl + "var _ = Helper\n\n// Debug prints state.\n//\n//dpclint:ok called from a debugger\nfunc Debug() {}\n",
		}, 0, 0},
		{"a bare suppression", map[string]string{
			"a/a.go": decl + "var _ = Helper\n\n//dpclint:ok\nfunc Debug() {}\n",
		}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := lintFiles(t, tc.files)
			if n != (findings{callers: tc.callers, bare: tc.bare}) {
				t.Errorf("findings %+v, want %d callers and %d bare", n, tc.callers, tc.bare)
			}
		})
	}
}

// TestLintFields runs the unread-field rule over small module trees: package
// a declares the struct, the other files are its would-be readers.
func TestLintFields(t *testing.T) {
	const decl = `package a

type T struct {
	Pub  int
	seen int
	hits int
}

func New() *T { return &T{Pub: 1, seen: 2} }

func (t *T) Bump() { t.hits++; t.seen = 3; t.hits += 2 }
`
	cases := []struct {
		name         string
		files        map[string]string
		fields, bare int
	}{
		{"written, incremented and keyed, never read", map[string]string{
			"a/a.go": decl,
		}, 2, 0},
		{"read by a file of its package", map[string]string{
			"a/a.go": decl,
			"a/b.go": "package a\n\nfunc (t *T) Sum() int { return t.seen + t.hits }\n",
		}, 0, 0},
		{"read in an assignment's source and an index", map[string]string{
			"a/a.go": decl,
			"a/b.go": "package a\n\nfunc (t *T) Copy(s []int) { s[t.hits] = t.seen }\n",
		}, 0, 0},
		{"read only by a test or another package", map[string]string{
			"a/a.go":      decl,
			"a/a_test.go": "package a\n\nvar _ = New().seen + New().hits\n",
			"b/b.go":      "package b\n\nfunc f(t *T) int { return t.seen + t.hits }\n",
		}, 2, 0},
		{"a reasoned suppression", map[string]string{
			"a/a.go": `package a

type T struct {
	//dpclint:ok read through unsafe by the debugger
	seen int
}

func New() *T { return &T{seen: 2} }
`,
		}, 0, 0},
		{"a positional map-key struct, read by no field name", map[string]string{
			"a/a.go": "package a\n\ntype key struct {\n\tino  uint64\n\tpage int64\n}\n\nvar m = map[key]int{key{1, 2}: 3}\n",
		}, 2, 0},
		{"a positional map-key struct with its reason", map[string]string{
			"a/a.go": "package a\n\ntype key struct {\n\tino  uint64 //dpclint:ok map-key identity\n\tpage int64  //dpclint:ok map-key identity\n}\n\nvar m = map[key]int{key{1, 2}: 3}\n",
		}, 0, 0},
		{"a bare suppression", map[string]string{
			"a/a.go": "package a\n\ntype T struct {\n\tseen int //dpclint:ok\n}\n\nvar _ = T{seen: 1}\n",
		}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := lintFiles(t, tc.files); n.fields != tc.fields || n.bare != tc.bare {
				t.Errorf("findings %+v, want %d fields and %d bare", n, tc.fields, tc.bare)
			}
		})
	}
}
