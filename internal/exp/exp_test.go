package exp

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// These tests assert the paper's qualitative claims (the "shapes") at Quick
// scale. They are the executable version of EXPERIMENTS.md.

// golden renders an experiment's tables — each shape test passes the data
// it checked — and compares them with testdata/<id>.golden: the tables
// `dpcbench -quick` prints for the experiment, minus its wall-time line.
// Every figure is a virtual-time quantity, so any change to how a world is
// built or measured shows up.
func golden(t *testing.T, id string, tables []*Table) {
	t.Helper()
	var b strings.Builder
	for _, tbl := range tables {
		tbl.Fprint(&b)
	}
	want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("%s differs from testdata/%s.golden:\n%s", id, id, b.String())
	}
}

func TestDMACountsMatchPaper(t *testing.T) {
	vw, vr, nw, nr := DMACounts()
	if vw != 11 || vr != 11 {
		t.Errorf("virtio-fs 8K DMAs = %d/%d, want 11/11", vw, vr)
	}
	if nw != 4 || nr != 4 {
		t.Errorf("nvme-fs 8K DMAs = %d/%d, want 4/4", nw, nr)
	}
	golden(t, "fig2", renderFig2(vw, vr))
	golden(t, "fig4", renderFig4(nw, nr))
}

func TestFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	pts := Fig6Data(Quick)
	// Points arrive as (v4k, n4k, v8k, n8k) per (op, threads) step.
	for i := 0; i+3 < len(pts); i += 4 {
		v4, n4, v8, n8 := pts[i], pts[i+1], pts[i+2], pts[i+3]
		// nvme-fs never loses to virtio-fs.
		if n4.IOPS < v4.IOPS {
			t.Errorf("%s @%d threads: nvme-fs %v IOPS < virtio-fs %v",
				n4.Op, n4.Threads, n4.IOPS, v4.IOPS)
		}
		if n8.Mean > v8.Mean {
			t.Errorf("%s @%d threads: nvme-fs latency %v > virtio-fs %v",
				n8.Op, n8.Threads, n8.Mean, v8.Mean)
		}
		// At high concurrency the gap is at least 2x (paper: 2-3x).
		if n4.Threads >= 32 {
			if ratio := n4.IOPS / v4.IOPS; ratio < 2 {
				t.Errorf("%s @%d threads: IOPS ratio %.2f < 2", n4.Op, n4.Threads, ratio)
			}
		}
	}
	golden(t, "fig6", renderFig6(pts))
}

func TestBW1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	vr, vw, nr, nw := BW1Data(Quick)
	// nvme-fs approaches the PCIe ceiling; virtio-fs sits well below it.
	if nr < 10 || nw < 10 {
		t.Errorf("nvme-fs bandwidth %v/%v GB/s below expectation", nr, nw)
	}
	if vr > nr/1.5 || vw > nw/1.5 {
		t.Errorf("virtio-fs %v/%v too close to nvme-fs %v/%v", vr, vw, nr, nw)
	}
	golden(t, "bw1", renderBW1(vr, vw, nr, nw))
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	pts := Fig7Data(Quick)
	byKey := map[string]Fig7Point{}
	for _, p := range pts {
		byKey[p.Stack+"/"+p.Op+"/"+strconv.Itoa(p.Threads)] = p
	}
	// Ext4 wins writes at one and at 8 threads, KVFS wins them from 32 (the
	// paper's writes cross between 16 and 32 threads), and KVFS wins reads
	// and writes at 128 threads on both latency and IOPS.
	for _, n := range []string{"1", "8"} {
		if e, k := byKey["ext4/write/"+n], byKey["kvfs/write/"+n]; e.Mean >= k.Mean {
			t.Errorf("ext4 write @%s threads (%v) should beat kvfs (%v)", n, e.Mean, k.Mean)
		}
	}
	if e, k := byKey["ext4/write/32"], byKey["kvfs/write/32"]; k.Mean >= e.Mean {
		t.Errorf("kvfs write @32 threads (%v) should beat ext4 (%v)", k.Mean, e.Mean)
	}
	for _, op := range []string{"read", "write"} {
		e, k := byKey["ext4/"+op+"/128"], byKey["kvfs/"+op+"/128"]
		if k.Mean >= e.Mean {
			t.Errorf("kvfs %s @128 threads (%v) should beat ext4 (%v)", op, k.Mean, e.Mean)
		}
		if k.IOPS <= e.IOPS {
			t.Errorf("kvfs %s IOPS @128 (%v) should beat ext4 (%v)", op, k.IOPS, e.IOPS)
		}
	}
	// KVFS host CPU stays low; Ext4 grows much larger.
	for _, p := range pts {
		if p.Stack == "kvfs" && p.HostUsage > 0.20 {
			t.Errorf("kvfs host usage %.0f%% at %d threads exceeds 20%%", p.HostUsage*100, p.Threads)
		}
	}
	if e, k := byKey["ext4/read/128"], byKey["kvfs/read/128"]; e.HostUsage < 3*k.HostUsage {
		t.Errorf("ext4 host usage (%.2f) not >> kvfs (%.2f)", e.HostUsage, k.HostUsage)
	}
	golden(t, "fig7", renderFig7(pts))
}

func TestTable2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	d := Table2Data(Quick)
	for _, key := range []string{"read/1", "write/1", "read/32", "write/32"} {
		if d["kvfs/"+key] <= d["ext4/"+key] {
			t.Errorf("KVFS %s (%.2f GB/s) does not beat Ext4 (%.2f GB/s)",
				key, d["kvfs/"+key], d["ext4/"+key])
		}
	}
	golden(t, "tab2", renderTable2(d))
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	d := Fig8Data(Quick)
	// Buffered beats direct for writes on both stacks.
	for _, stack := range []string{"ext4", "kvfs"} {
		if d.Rand[stack+"/buffered/write"] <= d.Rand[stack+"/direct/write"] {
			t.Errorf("%s buffered writes not faster than direct", stack)
		}
	}
	// KVFS sequential-read prefetch boost is at least an order of
	// magnitude at 1 thread (paper: ~100x).
	boost := d.Seq["kvfs/buffered/1"] / d.Seq["kvfs/direct/1"]
	if boost < 10 {
		t.Errorf("kvfs 1-thread prefetch boost = %.1fx, want >= 10x", boost)
	}
	golden(t, "fig8", renderFig8(d))
}

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	pts := Fig9Data(Quick)
	byKey := map[string]Fig9Point{}
	for _, p := range pts {
		byKey[p.Client+"/"+p.Case] = p
	}
	for _, kase := range []string{"8K rnd rd", "8K rnd wr", "small rnd rd", "8K file cr"} {
		std := byKey["NFS/"+kase]
		opt := byKey["NFS+opt-client/"+kase]
		dpcPt := byKey["NFS+DPC/"+kase]
		// Optimized client well above standard NFS (paper: 4-5x).
		if opt.Value < 2*std.Value {
			t.Errorf("%s: opt %.0f not >= 2x NFS %.0f", kase, opt.Value, std.Value)
		}
		// DPC comparable to the optimized client (>= 80%).
		if dpcPt.Value < 0.8*opt.Value {
			t.Errorf("%s: DPC %.0f below 80%% of opt %.0f", kase, dpcPt.Value, opt.Value)
		}
		// DPC's host CPU is a small fraction of the optimized client's
		// (paper: ~90% reduction).
		if dpcPt.HostCores > 0.35*opt.HostCores {
			t.Errorf("%s: DPC %.1f cores not <= 35%% of opt %.1f", kase, dpcPt.HostCores, opt.HostCores)
		}
	}
	golden(t, "fig9", renderFig9(pts))
}

// TestCheapTablesGolden pins the tables of the experiments no shape test
// runs but that cost seconds: Figure 1 and the queue-count and EC-placement
// ablations.
func TestCheapTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	for _, id := range []string{"fig1", "abl1", "abl4"} {
		golden(t, id, ByID(id).Run(Quick))
	}
}

func TestRegistryAndTables(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if ByID(e.ID) != nil && ByID(e.ID).Title != e.Title {
			t.Errorf("ByID(%q) mismatch", e.ID)
		}
	}
	if ByID("nope") != nil {
		t.Error("ByID of unknown id should be nil")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "test",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== test ==", "a    bbbb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
