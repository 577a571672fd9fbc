package main

import (
	"os"
	"path/filepath"
	"testing"
)

func lintSource(t *testing.T, src string) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return lintFile(path)
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
	o.Publish("fault.injected."+name, &c.n) //dpclint:ok
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
	o.Counter(name) //dpclint:ok
	// registry-enumerated //dpclint:ok
	o.Gauge(name)
	o.Histogram(name)
}
`
	if n := lintSource(t, src); n != 1 {
		t.Errorf("suppressed file: %d findings, want 1 (the unsuppressed Histogram)", n)
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
