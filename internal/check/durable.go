package check

import (
	"fmt"
	"strings"

	"dpc/internal/sim"
)

// This file is the crash harness's durability model and its verifier: what
// the stack promised durable at each point of a trace, and the check of a
// recovered world against those promises.

// durableModel tracks, alongside the plain oracle, every live file's content
// history since its last reset (one point-in-time snapshot per version) and
// its durability floor: the most recent version the stack acknowledged as
// crash-proof. Completed fsyncs and direct writes raise the floor; creates
// and truncates reset the history (KVFS metadata is write-through, so a
// completed metadata op is itself durable). Buffered writes append versions
// without raising the floor — a background flush may or may not have made
// them durable, so after a crash any version at or above the floor is
// legitimate.
type durableModel struct {
	o     *Oracle
	hist  map[string][][]byte
	floor map[string]int // index into hist
}

func newDurableModel() *durableModel {
	return &durableModel{o: NewOracle(), hist: map[string][][]byte{}, floor: map[string]int{}}
}

func (m *durableModel) apply(op Op) {
	if m.o.Apply(op).Err != ErrNone {
		return
	}
	switch op.Kind {
	case OpCreate, OpTruncate:
		m.hist[op.Path] = [][]byte{nil}
		m.floor[op.Path] = 0
	case OpWrite:
		content, _ := m.o.ContentOf(op.Path)
		m.hist[op.Path] = append(m.hist[op.Path], append([]byte(nil), content...))
		if op.Direct {
			m.floor[op.Path] = len(m.hist[op.Path]) - 1
		}
	case OpFsync:
		if n := len(m.hist[op.Path]); n > 0 {
			m.floor[op.Path] = n - 1
		}
	case OpUnlink:
		delete(m.hist, op.Path)
		delete(m.floor, op.Path)
	case OpRename:
		m.hist[op.Path2] = m.hist[op.Path]
		m.floor[op.Path2] = m.floor[op.Path]
		delete(m.hist, op.Path)
		delete(m.floor, op.Path)
	}
}

// checkPages verifies each page-sized extent of got against the file's
// acceptable version set: any snapshot at or after the durability floor
// (background flushes, write-through fallbacks and WAL replay each
// legitimately leave a different one), or zeros where the floor version had
// no bytes (pages that never became durable are zero-filled by the
// scavenger). With loose=true (the in-flight file) the floor is ignored and
// extra candidate images are admitted. Pages are the atomic write-back unit,
// so every recovered page must be *some* whole version's image — a page
// matching none is corruption, not caching.
func (m *durableModel) checkPages(path string, got []byte, ps int, loose bool, extra [][]byte) string {
	hist := m.hist[path]
	fl := m.floor[path]
	if loose {
		fl = 0
	}
	var cands [][]byte
	if fl < len(hist) {
		cands = append(cands, hist[fl:]...)
	}
	cands = append(cands, extra...)
	floorEOF := 0
	if !loose && fl < len(hist) {
		floorEOF = len(hist[fl])
	}
	for pg := 0; pg*ps < len(got); pg++ {
		lo := pg * ps
		hi := lo + ps
		if hi > len(got) {
			hi = len(got)
		}
		gpage := got[lo:hi]
		ok := false
		for _, c := range cands {
			if pageMatches(c, lo, gpage) {
				ok = true
				break
			}
		}
		if !ok && (loose || lo >= floorEOF) && allZero(gpage) {
			ok = true
		}
		if !ok {
			return fmt.Sprintf("page %d (bytes [%d,%d)) matches no written version (floor v%d of %d)",
				pg, lo, hi, fl, len(hist))
		}
	}
	return ""
}

// pageMatches reports whether gpage equals version's bytes at offset off,
// zero-padded past the version's EOF.
func pageMatches(version []byte, off int, gpage []byte) bool {
	for i := range gpage {
		var w byte
		if off+i < len(version) {
			w = version[off+i]
		}
		if gpage[i] != w {
			return false
		}
	}
	return true
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// postContents applies the in-flight op to a copy of the pre-crash oracle
// and returns the resulting file contents for the paths it touches.
func postContents(m *durableModel, op Op) map[string][]byte {
	cp := NewOracle()
	for d := range m.o.dirs {
		cp.dirs[d] = true
	}
	for f, b := range m.o.files {
		cp.files[f] = append([]byte(nil), b...)
	}
	cp.Apply(op)
	out := map[string][]byte{}
	for _, path := range []string{op.Path, op.Path2} {
		if path == "" {
			continue
		}
		if b, ok := cp.files[path]; ok {
			out[path] = b
		}
	}
	return out
}

// verifyRecovered checks a recovered system against the durability model.
// inflight is the single op whose window straddled the crash instant (nil
// if the crash fell between ops); its paths get the relaxed treatment — any
// mix of pre- and post-op state is legal, but still nothing that was never
// written. Returns "" on success, or a description of the violation.
func verifyRecovered(p *sim.Proc, w *World, m *durableModel, inflight *Op) string {
	ps := w.Ctl.L.PageSize
	relaxed := map[string]bool{}
	if inflight != nil {
		relaxed[inflight.Path] = true
		if inflight.Path2 != "" {
			relaxed[inflight.Path2] = true
		}
	}

	// The repaired image must be structurally clean before any semantics.
	if probs := w.Sys.KVFS.Fsck(p, w.Sys.KVCluster).Problems; len(probs) > 0 {
		return "post-recovery fsck: " + strings.Join(probs, "; ")
	}

	// Namespace: every durable directory must list exactly the durable
	// children (strays included — anything extra survived when it should
	// not have). In-flight paths are excluded from both sides.
	for _, dir := range m.o.LiveDirs() {
		if relaxed[dir] {
			continue
		}
		want := filterChildren(dir, m.o.list(dir), relaxed)
		ls := w.Apply(p, Op{Kind: OpReaddir, Path: dir})
		if ls.Err != ErrNone {
			return fmt.Sprintf("recovered: readdir %q: %v", dir, ls.Err)
		}
		got := filterChildren(dir, ls.Names, relaxed)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Sprintf("recovered: listing of %q [%s], want [%s]",
				dir, strings.Join(got, ","), strings.Join(want, ","))
		}
	}

	// Durable files: exact size (sizes are write-through metadata), every
	// page some version at or above the durability floor.
	for _, path := range m.o.LiveFiles() {
		if relaxed[path] {
			continue
		}
		want, _ := m.o.ContentOf(path)
		size, _, err := w.FS.Stat(p, 0, path)
		if err != nil {
			return fmt.Sprintf("recovered: stat %s: %v", path, err)
		}
		if size != uint64(len(want)) {
			return fmt.Sprintf("recovered: %s size=%d, want %d", path, size, len(want))
		}
		if len(want) == 0 {
			continue
		}
		got, cls := readBack(p, w, path, len(want))
		if cls != ErrNone {
			return fmt.Sprintf("recovered: read %s: %v", path, cls)
		}
		if len(got) != len(want) {
			return fmt.Sprintf("recovered: read %s: %d bytes, want %d", path, len(got), len(want))
		}
		if d := m.checkPages(path, got, ps, false, nil); d != "" {
			return fmt.Sprintf("recovered: %s: %s", path, d)
		}
	}

	// The in-flight op's paths: presence and size may reflect any point
	// through the op, but content must still be assembled from states the
	// application actually produced.
	if inflight != nil {
		post := postContents(m, *inflight)
		var extra [][]byte
		for _, b := range post {
			extra = append(extra, b)
		}
		for path := range relaxed {
			extra = append(extra, m.hist[path]...)
		}
		for path := range relaxed {
			size, dir, err := w.FS.Stat(p, 0, path)
			if err != nil || dir || size == 0 {
				continue // absence is always acceptable mid-op
			}
			maxSz := 0
			if b, ok := m.o.ContentOf(path); ok && len(b) > maxSz {
				maxSz = len(b)
			}
			if b, ok := post[path]; ok && len(b) > maxSz {
				maxSz = len(b)
			}
			if size > uint64(maxSz) {
				return fmt.Sprintf("recovered: in-flight %s size=%d beyond any state (max %d)", path, size, maxSz)
			}
			got, cls := readBack(p, w, path, int(size))
			if cls != ErrNone {
				return fmt.Sprintf("recovered: read in-flight %s: %v", path, cls)
			}
			if d := m.checkPages(path, got, ps, true, extra); d != "" {
				return fmt.Sprintf("recovered: in-flight %s: %s", path, d)
			}
		}
	}
	return ""
}

// readBack reads a recovered file's content through direct I/O — the
// honest "what is on the backend" view, untouched by fresh cache state.
func readBack(p *sim.Proc, w *World, path string, n int) ([]byte, ErrClass) {
	r := w.Apply(p, Op{Kind: OpRead, Path: path, Len: n, Direct: true})
	return r.Data, r.Err
}

// filterChildren drops children of dir whose full path is in the relaxed
// set. names must be sorted; the result preserves order.
func filterChildren(dir string, names []string, relaxed map[string]bool) []string {
	if len(relaxed) == 0 {
		return names
	}
	out := names[:0:0]
	for _, nm := range names {
		if !relaxed[dir+"/"+nm] {
			out = append(out, nm)
		}
	}
	return out
}
