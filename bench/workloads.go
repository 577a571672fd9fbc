package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"dpc"
	"dpc/internal/kvfs"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

const (
	pageSize = 8192
	stampLen = 16
	// extentPages is the ownership granule: page lpn of any file belongs to
	// proc (lpn/extentPages) mod procs. A proc reads and writes only pages it
	// owns, so it knows the version every page it reads must carry, and an
	// extent is long enough for a sequential run to wake the prefetcher.
	extentPages = 32
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one generated access. The program under test sees only these
// offsets and the stamped payloads; the seed stays in the benchmark.
type op struct {
	kind opKind
	file uint8
	lpn  uint32
}

// workloadDef is the fixed shape of one workload at scale 1.
type workloadDef struct {
	name        string
	procs       int
	opsPerProc  int
	warmPerProc int
	opWidth     int           // generated accesses consumed by one measured op
	interval    time.Duration // open loop when > 0: a proc's op i is due at t0 + i*interval + tid*stagger
	stagger     time.Duration
	build       func(w *world)
}

var workloadDefs = []*workloadDef{
	{name: "raw_small", procs: 16, opsPerProc: 16000, warmPerProc: 1500, opWidth: 1, build: buildRawSmall},
	{name: "kvfs_direct", procs: 32, opsPerProc: 1150, warmPerProc: 50, opWidth: 1, build: buildKVFSDirect},
	{name: "cached_paced", procs: 16, opsPerProc: 8000, warmPerProc: 1500, opWidth: 1,
		interval: 250 * time.Microsecond, stagger: 15 * time.Microsecond, build: buildCachedPaced},
	{name: "write_sync", procs: 4, opsPerProc: 1200, warmPerProc: 50, opWidth: 4, build: buildWriteSync},
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

// runCfg is what one rep is built from.
type runCfg struct {
	seed   int64
	scale  float64 // multiplies op counts; below smallWorldScale the files and caches shrink too
	ablate string  // "", flush, cache, wal or prefetch: one existing public option turned off
	tr     *tracer // nil = tracing off
}

// smallWorldScale is where a run stops being a measurement and becomes a
// plumbing check (the smoke test): files and caches shrink 16x so set-up
// takes milliseconds.
const smallWorldScale = 0.05

func (c runCfg) shrink(n int) int {
	if c.scale < smallWorldScale {
		return n / 16
	}
	return n
}

// filePages is shrink(n), but never so short that a proc owns no extent.
func (w *world) filePages(n int) int {
	if least := w.def.procs * extentPages; w.cfg.shrink(n) < least {
		return least
	}
	return w.cfg.shrink(n)
}

func (c runCfg) count(n int) int {
	if v := int(float64(n)*c.scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// procState is one application thread: its generated accesses, its buffers,
// the version it last wrote to each page it owns, and what it measured.
type procState struct {
	tid       int
	ops, warm []op
	wbuf      []byte
	rbuf      []byte
	hdr       []byte     // raw_small request header, reused
	ver       [][]uint32 // [file][lpn]
	lat       []int64    // virtual ns per completed measured op
	attempted int
	failed    int
	lateMaxNs int64 // open loop: the furthest an op was issued behind its due time
}

// world is one freshly built system plus the workload state bound to it.
type world struct {
	def   *workloadDef
	cfg   runCfg
	tr    *tracer
	m     *model.Machine
	sys   *dpc.System    // nil for raw_small
	drv   *nvmefs.Driver // raw_small only
	files []*dpc.File
	body  []byte // what every page holds between its two stamps
	procs []*procState

	// exec performs measured (or warm-up) op seq of ps over its slice of
	// generated accesses and reports whether every call returned and verified.
	exec func(p *sim.Proc, ps *procState, acc []op, seq int) bool
	// verify, when set, runs on every proc after all procs finished the
	// measured phase; it counts into attempted/failed but takes no sample.
	verify func(p *sim.Proc, ps *procState)
}

// stage runs n procs to completion. Daemons keep the event heap non-empty
// forever, so the engine is stepped until the procs are done instead of
// drained.
func (w *world) stage(n int, fn func(p *sim.Proc, i int)) {
	left := n
	for i := 0; i < n; i++ {
		i := i
		w.m.Eng.Go("bench", func(p *sim.Proc) {
			fn(p, i)
			left--
		})
	}
	deadline := w.m.Eng.Now() + sim.Time(10*time.Minute)
	for left > 0 {
		if w.m.Eng.Now() > deadline {
			panic(fmt.Sprintf("bench: %s: %d procs still blocked after 10 virtual minutes", w.def.name, left))
		}
		w.m.Eng.RunUntil(w.m.Eng.Now() + sim.Time(50*time.Microsecond))
	}
}

// driver is the nvme-fs driver every op of this world goes through.
func (w *world) driver() *nvmefs.Driver {
	if w.sys != nil {
		return w.sys.Driver
	}
	return w.drv
}

func (w *world) shutdown() {
	if w.sys != nil {
		w.sys.StopDaemons()
	}
	w.m.Eng.Shutdown()
}

// ---- stamps ----

// stamp writes (ino, lpn, version) at both ends of a page, so a page torn
// anywhere between them shows.
func stamp(page []byte, ino uint64, lpn, version uint32) {
	le := binary.LittleEndian
	le.PutUint64(page[0:], ino)
	le.PutUint32(page[8:], lpn)
	le.PutUint32(page[12:], version)
	copy(page[len(page)-stampLen:], page[:stampLen])
}

func (w *world) pageOK(page []byte, ino uint64, lpn, version uint32) bool {
	if len(page) != pageSize {
		return false
	}
	le := binary.LittleEndian
	return le.Uint64(page[0:]) == ino && le.Uint32(page[8:]) == lpn && le.Uint32(page[12:]) == version &&
		bytes.Equal(page[:stampLen], page[pageSize-stampLen:]) &&
		bytes.Equal(page[stampLen:pageSize-stampLen], w.body[stampLen:pageSize-stampLen])
}

// ---- generation ----

func (w *world) rng(tid int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(w.cfg.seed*1_000_003 + int64(tid)*7919 + salt))
}

// ownedPages lists the pages of a filePages-long file that proc tid owns.
func ownedPages(tid, procs, filePages int) []uint32 {
	var out []uint32
	for lpn := 0; lpn < filePages; lpn++ {
		if (lpn/extentPages)%procs == tid {
			out = append(out, uint32(lpn))
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("bench: proc %d of %d owns nothing in a %d-page file", tid, procs, filePages))
	}
	return out
}

// genUniform draws n accesses uniformly over the proc's pages of nFiles files.
func genUniform(rng *rand.Rand, n int, owned []uint32, nFiles, readPct int) []op {
	out := make([]op, n)
	for i := range out {
		k := opWrite
		if rng.Intn(100) < readPct {
			k = opRead
		}
		out[i] = op{kind: k, file: uint8(rng.Intn(nFiles)), lpn: owned[rng.Intn(len(owned))]}
	}
	return out
}

// hotCold splits a proc's pages (in file order) into the four classes
// cached_paced draws from. Reads and writes go to different pages: at HEAD a
// buffered read of a page the flusher holds locked falls back, after three
// fill attempts, to an uncached backend read and returns the page's old
// contents (see README.md, "Found while building"), and a workload must not
// fail. Written pages are verified by the read-back after the measured phase.
type hotCold struct {
	hotRead, hotWrite, coldRead, coldWrite []uint32
	runs                                   [][]uint32 // sequential read runs inside coldRead
}

const seqRun = extentPages / 2

func splitHotCold(owned []uint32) hotCold {
	e := len(owned) / 8
	hc := hotCold{hotRead: owned[:e], hotWrite: owned[e : 2*e], coldRead: owned[2*e : 6*e], coldWrite: owned[6*e:]}
	for i := 0; i+seqRun <= len(hc.coldRead); i += seqRun {
		if run := hc.coldRead[i : i+seqRun]; run[seqRun-1] == run[0]+seqRun-1 {
			hc.runs = append(hc.runs, run)
		}
	}
	return hc
}

// genHotCold is cached_paced's mix: 70 % reads, 30 % writes; three quarters
// of either go to the hot eighths of the proc's pages (together half the
// cache, so they stay resident), the rest to the cold ones (more than the
// cache, so they mostly miss and evict). One access in a hundred instead
// starts a sequential read of half an extent, the pattern the prefetcher
// exists for.
func genHotCold(rng *rand.Rand, n int, hc hotCold, nFiles int) []op {
	out := make([]op, 0, n)
	for len(out) < n {
		file := uint8(rng.Intn(nFiles))
		if rng.Intn(100) == 0 {
			for _, lpn := range hc.runs[rng.Intn(len(hc.runs))] {
				if len(out) < n {
					out = append(out, op{kind: opRead, file: file, lpn: lpn})
				}
			}
			continue
		}
		hot := rng.Intn(4) != 0
		o := op{kind: opWrite, file: file}
		set := hc.coldWrite
		switch read := rng.Intn(100) < 70; {
		case read && hot:
			o.kind, set = opRead, hc.hotRead
		case read:
			o.kind, set = opRead, hc.coldRead
		case hot:
			set = hc.hotWrite
		}
		o.lpn = set[rng.Intn(len(set))]
		out = append(out, o)
	}
	return out
}

// newProcs allocates per-proc state; gen produces a proc's access list of
// the given length from its own PRNG stream.
func (w *world) newProcs(nFiles, filePages int, gen func(rng *rand.Rand, tid, n int) []op) {
	d := w.def
	n := w.cfg.count(d.opsPerProc)
	warm := w.cfg.count(d.warmPerProc)
	for tid := 0; tid < d.procs; tid++ {
		ps := &procState{tid: tid, wbuf: append([]byte(nil), w.body...), rbuf: make([]byte, pageSize),
			hdr: make([]byte, rawHdrLen), lat: make([]int64, 0, n)}
		for f := 0; f < nFiles; f++ {
			ps.ver = append(ps.ver, make([]uint32, filePages))
		}
		ps.warm = gen(w.rng(tid, 1), tid, warm*d.opWidth)
		ps.ops = gen(w.rng(tid, 2), tid, n*d.opWidth)
		w.procs = append(w.procs, ps)
	}
}

// ---- file worlds (KVFS) ----

// buildKVFS assembles a KVFS system, creates nFiles files of filePages pages
// and preloads every page with version 0 through direct writes.
func (w *world) buildKVFS(opts dpc.Options, nFiles, filePages int) {
	switch w.cfg.ablate {
	case "":
	case "flush":
		opts.Ctl.FlushEnabled = false
	case "cache":
		opts.CachePages = 0
	case "wal":
		opts.WAL.Enabled = false
	case "prefetch":
		opts.Ctl.PrefetchEnabled = false
	default:
		panic("bench: unknown -ablate " + w.cfg.ablate)
	}
	if w.tr != nil {
		opts.Model.Obs = obs.New()
	}
	w.sys = dpc.New(opts)
	w.m = w.sys.M
	if w.tr != nil {
		w.tr.listen(w.m.PCIe)
		if ctl := w.sys.KVFSService().Ctl; ctl != nil {
			ctl.SetBackend(tracedBackend{inner: kvfs.PageBackend{FS: w.sys.KVFS}, t: w.tr})
		}
	}
	cl := w.sys.KVFSClient()
	w.files = make([]*dpc.File, nFiles)
	w.stage(nFiles, func(p *sim.Proc, i int) {
		f, err := cl.Create(p, i, fmt.Sprintf("/bench-%d", i))
		if err != nil {
			panic(fmt.Sprintf("bench: create: %v", err))
		}
		w.files[i] = f
		const chunkPages = 8
		chunk := make([]byte, chunkPages*pageSize)
		for lpn := 0; lpn < filePages; lpn += chunkPages {
			for k := 0; k < chunkPages; k++ {
				pg := chunk[k*pageSize : (k+1)*pageSize]
				copy(pg, w.body)
				stamp(pg, f.Ino, uint32(lpn+k), 0)
			}
			if err := f.Write(p, i, uint64(lpn)*pageSize, chunk, true); err != nil {
				panic(fmt.Sprintf("bench: preload: %v", err))
			}
		}
	})
}

// readPage reads one owned page and checks that it carries the version this
// proc last wrote.
func (w *world) readPage(p *sim.Proc, ps *procState, o op, seq int, parent int32, direct bool) bool {
	f := w.files[o.file]
	s := w.tr.begin(p, "File.ReadInto", "client", ps.tid, seq, parent)
	n, err := f.ReadInto(p, ps.tid, uint64(o.lpn)*pageSize, ps.rbuf, direct)
	w.tr.end(s, p)
	return err == nil && n == pageSize && w.pageOK(ps.rbuf, f.Ino, o.lpn, ps.ver[o.file][o.lpn])
}

// writePage writes the next version of one owned page.
func (w *world) writePage(p *sim.Proc, ps *procState, o op, seq int, parent int32, direct bool) bool {
	f := w.files[o.file]
	v := ps.ver[o.file][o.lpn] + 1
	stamp(ps.wbuf, f.Ino, o.lpn, v)
	s := w.tr.begin(p, "File.Write", "client", ps.tid, seq, parent)
	err := f.Write(p, ps.tid, uint64(o.lpn)*pageSize, ps.wbuf, direct)
	w.tr.end(s, p)
	if err != nil {
		return false
	}
	ps.ver[o.file][o.lpn] = v
	return true
}

// readBack reads pages around the cache after the measured phase; each must
// carry the last version the proc wrote. The reads count as attempted ops
// and take no latency sample.
func (w *world) readBack(p *sim.Proc, ps *procState, file int, lpns []uint32) {
	for _, lpn := range lpns {
		ps.attempted++
		if !w.readPage(p, ps, op{kind: opRead, file: uint8(file), lpn: lpn}, -1, 0, true) {
			ps.failed++
		}
	}
}

func (w *world) fileOp(direct bool) func(p *sim.Proc, ps *procState, acc []op, seq int) bool {
	return func(p *sim.Proc, ps *procState, acc []op, seq int) bool {
		if acc[0].kind == opRead {
			return w.readPage(p, ps, acc[0], seq, 0, direct)
		}
		return w.writePage(p, ps, acc[0], seq, 0, direct)
	}
}

// buildKVFSDirect: the full offload path with the cache present but bypassed.
func buildKVFSDirect(w *world) {
	const nFiles = 4
	filePages := w.filePages(4096) // 32 MiB
	w.buildKVFS(dpc.DefaultOptions(), nFiles, filePages)
	w.newProcs(nFiles, filePages, func(rng *rand.Rand, tid, n int) []op {
		return genUniform(rng, n, ownedPages(tid, w.def.procs, filePages), nFiles, 70)
	})
	w.exec = w.fileOp(true)
}

// buildCachedPaced: hybrid cache at half the working set, daemon and
// prefetcher on, offered load well below capacity so virtual time passes
// between ops and background work runs.
func buildCachedPaced(w *world) {
	const nFiles = 4
	filePages := w.filePages(4096) // 4 x 32 MiB = 128 MiB working set
	opts := dpc.DefaultOptions()
	opts.CachePages = w.cfg.shrink(8192) // 64 MiB
	opts.Model.HostMemMB = 256
	w.buildKVFS(opts, nFiles, filePages)
	split := func(tid int) hotCold { return splitHotCold(ownedPages(tid, w.def.procs, filePages)) }
	w.newProcs(nFiles, filePages, func(rng *rand.Rand, tid, n int) []op {
		return genHotCold(rng, n, split(tid), nFiles)
	})
	w.exec = w.fileOp(false)
	w.verify = func(p *sim.Proc, ps *procState) {
		hc := split(ps.tid)
		for f := 0; f < nFiles; f++ {
			for _, set := range [][]uint32{hc.hotWrite, hc.coldWrite} {
				w.readBack(p, ps, f, set)
			}
		}
	}
}

// buildWriteSync: one op is four buffered page writes to the proc's own file
// and an fsync that the WAL group-commits; afterwards every page is read
// back around the cache.
func buildWriteSync(w *world) {
	filePages := w.cfg.shrink(1024) // 8 MiB per proc
	if filePages < extentPages {
		filePages = extentPages
	}
	opts := dpc.DefaultOptions()
	opts.CachePages = 1024
	opts.WAL.Enabled = true
	w.buildKVFS(opts, w.def.procs, filePages)
	all := ownedPages(0, 1, filePages)
	w.newProcs(w.def.procs, filePages, func(rng *rand.Rand, tid, n int) []op {
		acc := genUniform(rng, n, all, 1, 0)
		for i := range acc {
			acc[i].file = uint8(tid)
		}
		return acc
	})
	w.exec = func(p *sim.Proc, ps *procState, acc []op, seq int) bool {
		root := w.tr.begin(p, "op", "bench", ps.tid, seq, 0)
		ok := true
		for _, o := range acc {
			ok = w.writePage(p, ps, o, seq, root, false) && ok
		}
		s := w.tr.begin(p, "File.Sync", "client", ps.tid, seq, root)
		err := w.files[ps.tid].Sync(p, ps.tid)
		w.tr.end(s, p)
		w.tr.end(root, p)
		return ok && err == nil
	}
	w.verify = func(p *sim.Proc, ps *procState) { w.readBack(p, ps, ps.tid, all) }
}

// ---- raw_small ----

// rawHdrLen is raw_small's request header: tid, slot, length, op index and
// the submitter's span id, so the handler's span can name its parent.
const rawHdrLen = 20

func putRawHeader(hdr []byte, tid int, slot uint32, seq int, span int32) {
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(tid))
	le.PutUint32(hdr[4:], slot)
	le.PutUint32(hdr[8:], pageSize)
	le.PutUint32(hdr[12:], uint32(seq))
	le.PutUint32(hdr[16:], uint32(span))
}

// rawSlots is how many pages of echo store each proc cycles over.
const rawSlots = 64

// buildRawSmall is the §4.1 / Fig 6 set-up: the nvme-fs driver alone, and
// behind it the benchmark's own handler answering from DPU DRAM. The handler
// keeps the last page written to each slot, so a read is checked like any
// other page.
func buildRawSmall(w *world) {
	cfg := model.Default()
	cfg.HostMemMB = 160
	cfg.DPUMemMB = 8
	if w.tr != nil {
		cfg.Obs = obs.New()
	}
	w.m = model.NewMachine(cfg)
	if w.tr != nil {
		w.tr.listen(w.m.PCIe)
	}
	store := make([][][]byte, w.def.procs)
	for tid := range store {
		store[tid] = make([][]byte, rawSlots)
		for s := range store[tid] {
			pg := append([]byte(nil), w.body...)
			stamp(pg, uint64(tid+1), uint32(s), 0)
			store[tid][s] = pg
		}
	}
	le := binary.LittleEndian
	handler := func(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
		if len(req.Header) < rawHdrLen {
			return nvmefs.Response{Status: nvme.StatusInvalid}
		}
		tid, slot := int(le.Uint32(req.Header[0:])), int(le.Uint32(req.Header[4:]))
		n := int(le.Uint32(req.Header[8:]))
		hs := w.tr.begin(p, "echo.handler", "bench", tid, int(le.Uint32(req.Header[12:])), int32(le.Uint32(req.Header[16:])))
		defer w.tr.end(hs, p)
		w.m.DPUExec(p, cfg.Costs.DPUVirtClient)
		if tid >= len(store) || slot >= rawSlots || n != pageSize {
			return nvmefs.Response{Status: nvme.StatusInvalid}
		}
		if req.SQE.FileOp == nvme.FileOpRead {
			return nvmefs.Response{Status: nvme.StatusOK, Header: []byte{1}, Data: store[tid][slot]}
		}
		copy(store[tid][slot], req.Data)
		return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(len(req.Data))}
	}
	w.drv = nvmefs.NewDriver(w.m, nvmefs.Config{Queues: 2, Depth: 256, SlotsPerQ: 128, MaxIO: 16 * 1024, RHCap: 64}, handler)

	slots := make([]uint32, rawSlots)
	for i := range slots {
		slots[i] = uint32(i)
	}
	w.newProcs(1, rawSlots, func(rng *rand.Rand, tid, n int) []op {
		return genUniform(rng, n, slots, 1, 50)
	})
	w.exec = func(p *sim.Proc, ps *procState, acc []op, seq int) bool {
		o := acc[0]
		ino := uint64(ps.tid + 1)
		s := w.tr.begin(p, "Driver.Submit", "nvmefs", ps.tid, seq, 0)
		defer w.tr.end(s, p)
		putRawHeader(ps.hdr, ps.tid, o.lpn, seq, s)
		if o.kind == opRead {
			c := w.drv.Submit(p, ps.tid, nvmefs.Submission{FileOp: nvme.FileOpRead, Header: ps.hdr,
				RHLen: 1, ReadLen: pageSize, ReadInto: ps.rbuf})
			return c.OK() && w.pageOK(c.Data, ino, o.lpn, ps.ver[0][o.lpn])
		}
		v := ps.ver[0][o.lpn] + 1
		stamp(ps.wbuf, ino, o.lpn, v)
		c := w.drv.Submit(p, ps.tid, nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: ps.hdr, Payload: ps.wbuf})
		if !c.OK() || c.Result != pageSize {
			return false
		}
		ps.ver[0][o.lpn] = v
		return true
	}
}

// newWorld builds a fresh world for one rep: the system, its files, the
// generated accesses, and the warm-up that fills the caches.
func newWorld(def *workloadDef, cfg runCfg) *world {
	w := &world{def: def, cfg: cfg, tr: cfg.tr}
	w.body = make([]byte, pageSize)
	rand.New(rand.NewSource(cfg.seed)).Read(w.body)
	def.build(w)
	w.stage(def.procs, func(p *sim.Proc, tid int) {
		ps := w.procs[tid]
		for i := 0; i+def.opWidth <= len(ps.warm); i += def.opWidth {
			if !w.exec(p, ps, ps.warm[i:i+def.opWidth], -1) {
				panic(fmt.Sprintf("bench: %s: warm-up op failed", def.name))
			}
		}
	})
	return w
}
