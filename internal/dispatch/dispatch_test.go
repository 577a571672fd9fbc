package dispatch

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dpc/internal/bufpool"
	"dpc/internal/dfs"
	"dpc/internal/kv"
	"dpc/internal/kvfs"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/sim"
)

func TestReqHeaderRoundTripProperty(t *testing.T) {
	f := func(ino, off uint64, ln, flags uint32, pathLen, aux uint16) bool {
		h := ReqHeader{Ino: ino, Off: off, Len: ln, Flags: flags, PathLen: pathLen, Aux: aux}
		got, err := DecodeReqHeader(h.Marshal())
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReqHeaderFitsNvmeHeaderArea(t *testing.T) {
	if ReqHeaderSize > 64 {
		t.Fatalf("header %d bytes exceeds the 64-byte WH area", ReqHeaderSize)
	}
}

func TestShortHeaderRejected(t *testing.T) {
	if _, err := DecodeReqHeader(make([]byte, 10)); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestDirEntriesRoundTrip(t *testing.T) {
	names := []string{"a", "file with spaces", "日本語", ""}
	inos := []uint64{1, 2, 1 << 60, 0}
	gotN, gotI, err := DecodeDirEntries(EncodeDirEntries(names, inos))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotN) != len(names) {
		t.Fatalf("decoded %d entries", len(gotN))
	}
	for i := range names {
		if gotN[i] != names[i] || gotI[i] != inos[i] {
			t.Fatalf("entry %d = %q/%d, want %q/%d", i, gotN[i], gotI[i], names[i], inos[i])
		}
	}
	// Empty listing round-trips too.
	gotN, _, err = DecodeDirEntries(EncodeDirEntries(nil, nil))
	if err != nil || len(gotN) != 0 {
		t.Fatalf("empty listing = %v, %v", gotN, err)
	}
}

func TestDecodeDirEntriesTruncated(t *testing.T) {
	enc := EncodeDirEntries([]string{"hello"}, []uint64{5})
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeDirEntries(enc[:cut]); err == nil && cut < len(enc) {
			// Cut points inside the count prefix of zero entries can
			// legally decode; anything else must error.
			if cut >= 4 {
				t.Fatalf("truncated payload (cut=%d) accepted", cut)
			}
		}
	}
}

func TestFillHeaderRoundTrip(t *testing.T) {
	for _, idx := range []int{0, 1, 255, 1 << 20} {
		filled, got := ParseFillHeader(fillHeader(make([]byte, 5), idx))
		if !filled || got != idx {
			t.Fatalf("fill header round trip: %v %d, want %d", filled, got, idx)
		}
	}
	if filled, _ := ParseFillHeader([]byte{0}); filled {
		t.Fatal("inline header parsed as filled")
	}
	if filled, _ := ParseFillHeader(nil); filled {
		t.Fatal("nil header parsed as filled")
	}
}

// newKVFSDispatcher wires a real KVFS service behind the dispatcher.
func newKVFSDispatcher(t *testing.T) (*model.Machine, *Dispatcher, *kvfs.FS) {
	t.Helper()
	m := model.NewMachine(model.Default())
	cluster := kv.NewCluster(m.Eng, m.Net, kv.DefaultClusterConfig())
	fs := kvfs.New(m, cluster.NewClient(m.DPUNode))
	m.Eng.Go("mount", fs.Mount)
	m.Eng.Run()
	d := New(m, &Service{KVFS: fs}, nil)
	return m, d, fs
}

// call synthesizes an nvmefs.Request the way the TGT would deliver it.
func call(p *sim.Proc, d *Dispatcher, op uint32, dispatchBit uint8, hdr ReqHeader, payload []byte) nvmefs.Response {
	req := nvmefs.Request{
		SQE: nvme.SQE{
			Opcode:   nvme.OpcodeBidir,
			Dispatch: dispatchBit,
			FileOp:   op,
			WriteLen: uint32(64 + len(payload)),
			ReadLen:  64 * 1024,
			WHLen:    uint16(ReqHeaderSize),
			RHLen:    64,
		},
		Header: hdr.Marshal(),
		Data:   payload,
	}
	return d.Handle(p, req)
}

func TestDispatchMetaAndData(t *testing.T) {
	m, d, _ := newKVFSDispatcher(t)
	m.Eng.Go("test", func(p *sim.Proc) {
		// Create.
		resp := call(p, d, nvme.FileOpCreate, nvme.DispatchKVFS,
			ReqHeader{PathLen: 5}, []byte("/file"))
		if resp.Status != nvme.StatusOK {
			t.Errorf("create status %s", nvme.StatusString(resp.Status))
			return
		}
		a, err := kvfs.UnmarshalAttr(resp.Header)
		if err != nil {
			t.Errorf("create attr: %v", err)
			return
		}
		// Write + read back through the dispatcher.
		payload := bytes.Repeat([]byte{0x5C}, 4096)
		resp = call(p, d, nvme.FileOpWrite, nvme.DispatchKVFS,
			ReqHeader{Ino: a.Ino, Off: 0, Len: 4096}, payload)
		if resp.Status != nvme.StatusOK {
			t.Errorf("write status %s", nvme.StatusString(resp.Status))
			return
		}
		resp = call(p, d, nvme.FileOpRead, nvme.DispatchKVFS,
			ReqHeader{Ino: a.Ino, Off: 0, Len: 4096}, nil)
		if resp.Status != nvme.StatusOK || !bytes.Equal(resp.Data, payload) {
			t.Errorf("read mismatch: status=%s len=%d", nvme.StatusString(resp.Status), len(resp.Data))
		}
		// Lookup of a missing path maps to NOT_FOUND.
		resp = call(p, d, nvme.FileOpLookup, nvme.DispatchKVFS,
			ReqHeader{PathLen: 6}, []byte("/ghost"))
		if resp.Status != nvme.StatusNotFound {
			t.Errorf("ghost lookup status %s", nvme.StatusString(resp.Status))
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	if d.Requests.Total() != 4 {
		t.Fatalf("Requests = %d", d.Requests.Total())
	}
}

func TestDispatchToMissingServiceRejected(t *testing.T) {
	m, d, _ := newKVFSDispatcher(t)
	m.Eng.Go("test", func(p *sim.Proc) {
		resp := call(p, d, nvme.FileOpLookup, nvme.DispatchDFS, ReqHeader{PathLen: 2}, []byte("/x"))
		if resp.Status != nvme.StatusInvalid {
			t.Errorf("dispatch to nil service = %s", nvme.StatusString(resp.Status))
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestDispatchBadHeaderRejected(t *testing.T) {
	m, d, _ := newKVFSDispatcher(t)
	m.Eng.Go("test", func(p *sim.Proc) {
		resp := d.Handle(p, nvmefs.Request{
			SQE:    nvme.SQE{Opcode: nvme.OpcodeBidir, FileOp: nvme.FileOpRead},
			Header: []byte{1, 2, 3},
		})
		if resp.Status != nvme.StatusInvalid {
			t.Errorf("bad header = %s", nvme.StatusString(resp.Status))
		}
		// PathLen overrunning the payload is invalid.
		resp = call(p, d, nvme.FileOpLookup, nvme.DispatchKVFS, ReqHeader{PathLen: 100}, []byte("/x"))
		if resp.Status != nvme.StatusInvalid {
			t.Errorf("overrun pathlen = %s", nvme.StatusString(resp.Status))
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestDPUCacheAblationPath(t *testing.T) {
	m, d, fs := newKVFSDispatcher(t)
	svc := d.services[nvme.DispatchKVFS]
	svc.DPUCache = map[[2]uint64][]byte{}
	svc.DPUCacheCap = 4
	m.Eng.Go("test", func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/c")
		fs.Write(p, ino, 0, bytes.Repeat([]byte{9}, 8192))
		hdr := ReqHeader{Ino: ino, Off: 0, Len: 8192}
		// First read populates the DPU cache; second is a hit and must be
		// faster.
		t0 := p.Now()
		call(p, d, nvme.FileOpRead, nvme.DispatchKVFS, hdr, nil)
		missLat := p.Now() - t0
		t0 = p.Now()
		resp := call(p, d, nvme.FileOpRead, nvme.DispatchKVFS, hdr, nil)
		hitLat := p.Now() - t0
		if !bytes.Equal(resp.Data, bytes.Repeat([]byte{9}, 8192)) {
			t.Error("DPU-cache hit returned wrong data")
		}
		if hitLat*2 >= missLat {
			t.Errorf("DPU-cache hit (%v) not faster than miss (%v)", hitLat, missLat)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestDispatchNamespaceOps(t *testing.T) {
	m, d, _ := newKVFSDispatcher(t)
	m.Eng.Go("test", func(p *sim.Proc) {
		mk := func(op uint32, hdr ReqHeader, payload []byte) nvmefs.Response {
			return call(p, d, op, nvme.DispatchKVFS, hdr, payload)
		}
		// mkdir + create children + readdir.
		if r := mk(nvme.FileOpMkdir, ReqHeader{PathLen: 4}, []byte("/dir")); r.Status != nvme.StatusOK {
			t.Errorf("mkdir = %s", nvme.StatusString(r.Status))
			return
		}
		mk(nvme.FileOpCreate, ReqHeader{PathLen: 6}, []byte("/dir/a"))
		mk(nvme.FileOpCreate, ReqHeader{PathLen: 6}, []byte("/dir/b"))
		r := mk(nvme.FileOpReaddir, ReqHeader{PathLen: 4}, []byte("/dir"))
		if r.Status != nvme.StatusOK {
			t.Errorf("readdir = %s", nvme.StatusString(r.Status))
			return
		}
		names, _, err := DecodeDirEntries(r.Data)
		if err != nil || len(names) != 2 {
			t.Errorf("readdir decode = %v, %v", names, err)
		}
		// rename: two paths in the payload.
		r = mk(nvme.FileOpRename, ReqHeader{PathLen: 6, Aux: 6}, []byte("/dir/a/dir/c"))
		if r.Status != nvme.StatusOK {
			t.Errorf("rename = %s", nvme.StatusString(r.Status))
		}
		// getattr by ino.
		cr := mk(nvme.FileOpLookup, ReqHeader{PathLen: 6}, []byte("/dir/c"))
		a, _ := kvfs.UnmarshalAttr(cr.Header)
		r = mk(nvme.FileOpGetattr, ReqHeader{Ino: a.Ino}, nil)
		if r.Status != nvme.StatusOK {
			t.Errorf("getattr = %s", nvme.StatusString(r.Status))
		}
		// truncate.
		r = mk(nvme.FileOpTruncate, ReqHeader{Ino: a.Ino}, nil)
		if r.Status != nvme.StatusOK {
			t.Errorf("truncate = %s", nvme.StatusString(r.Status))
		}
		// rmdir non-empty fails with NOT_EMPTY.
		if r := mk(nvme.FileOpRmdir, ReqHeader{PathLen: 4}, []byte("/dir")); r.Status != nvme.StatusNotEmpty {
			t.Errorf("rmdir non-empty = %s", nvme.StatusString(r.Status))
		}
		mk(nvme.FileOpUnlink, ReqHeader{PathLen: 6}, []byte("/dir/c"))
		mk(nvme.FileOpUnlink, ReqHeader{PathLen: 6}, []byte("/dir/b"))
		if r := mk(nvme.FileOpRmdir, ReqHeader{PathLen: 4}, []byte("/dir")); r.Status != nvme.StatusOK {
			t.Errorf("rmdir = %s", nvme.StatusString(r.Status))
		}
		// Barrier with no cache configured is a no-op success.
		if r := mk(nvme.FileOpBarrier, ReqHeader{}, nil); r.Status != nvme.StatusOK {
			t.Errorf("barrier = %s", nvme.StatusString(r.Status))
		}
		// CacheEvict without a cache is invalid.
		if r := mk(nvme.FileOpCacheEvict, ReqHeader{}, nil); r.Status != nvme.StatusInvalid {
			t.Errorf("evict without cache = %s", nvme.StatusString(r.Status))
		}
		// Unknown file op.
		if r := mk(nvme.FileOpNop, ReqHeader{}, nil); r.Status != nvme.StatusInvalid {
			t.Errorf("nop = %s", nvme.StatusString(r.Status))
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

func TestDispatchDFSMeta(t *testing.T) {
	m := model.NewMachine(model.Default())
	b := dfs.NewBackend(m.Eng, m.Net, dfs.DefaultBackendConfig())
	core := dfs.NewCore(b, m.DPUNode, m.DPUCPU, dfs.DefaultCoreCosts())
	d := New(m, nil, &Service{DFS: core})
	m.Eng.Go("test", func(p *sim.Proc) {
		r := call(p, d, nvme.FileOpCreate, nvme.DispatchDFS, ReqHeader{PathLen: 5}, []byte("/dist"))
		if r.Status != nvme.StatusOK {
			t.Errorf("dfs create = %s", nvme.StatusString(r.Status))
			return
		}
		r = call(p, d, nvme.FileOpLookup, nvme.DispatchDFS, ReqHeader{PathLen: 5}, []byte("/dist"))
		if r.Status != nvme.StatusOK {
			t.Errorf("dfs lookup = %s", nvme.StatusString(r.Status))
		}
		// Unsupported namespace op on DFS.
		r = call(p, d, nvme.FileOpMkdir, nvme.DispatchDFS, ReqHeader{PathLen: 2}, []byte("/d"))
		if r.Status != nvme.StatusInvalid {
			t.Errorf("dfs mkdir = %s", nvme.StatusString(r.Status))
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

// A read served into the transport's pooled response buffer returns the
// bytes a bare Request (ReadBuf falling back to make) returns, for a full
// block, an unaligned cross-block range and an EOF-clamped tail. With the
// DPU-resident cache on, a hit returns the cache's own slice as Data: the
// transport recycles only the buffer it handed out, so with poisoning on the
// cached bytes survive any number of hits.
func TestHandleReadTransportBuffer(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)
	m, d, fs := newKVFSDispatcher(t)
	drv := nvmefs.NewDriver(m, nvmefs.Config{Queues: 1, Depth: 16, SlotsPerQ: 8, MaxIO: 64 * 1024, RHCap: 64}, d.Handle)
	const size = 3*kvfs.BlockSize + 500
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i*13 + i>>8)
	}
	read := func(p *sim.Proc, hdr ReqHeader) []byte {
		c := drv.Submit(p, 0, nvmefs.Submission{FileOp: nvme.FileOpRead, Dispatch: nvme.DispatchKVFS,
			Header: hdr.Marshal(), RHLen: 1, ReadLen: int(hdr.Len)})
		if !c.OK() {
			t.Fatalf("read %+v: %s", hdr, nvme.StatusString(c.Status))
		}
		return c.Data
	}
	m.Eng.Go("test", func(p *sim.Proc) {
		ino, _ := fs.Create(p, "/f")
		if err := fs.Write(p, ino, 0, body); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, kvfs.BlockSize}, {5000, 9000}, {size - 300, 4096}} {
			hdr := ReqHeader{Ino: ino, Off: uint64(r[0]), Len: uint32(r[1])}
			want := body[r[0]:min(r[0]+r[1], size)]
			bare := call(p, d, nvme.FileOpRead, nvme.DispatchKVFS, hdr, nil)
			if !bytes.Equal(bare.Data, want) {
				t.Errorf("bare request, range %v: wrong bytes", r)
			}
			if got := read(p, hdr); !bytes.Equal(got, want) {
				t.Errorf("transport buffer, range %v: %d bytes, want %d, or different contents", r, len(got), len(want))
			}
		}

		svc := d.services[nvme.DispatchKVFS]
		svc.DPUCache = map[[2]uint64][]byte{}
		svc.DPUCacheCap = 4
		hdr := ReqHeader{Ino: ino, Off: 0, Len: kvfs.BlockSize}
		for i := 0; i < 4; i++ { // a miss that fills the DPU cache, then hits
			if got := read(p, hdr); !bytes.Equal(got, body[:kvfs.BlockSize]) {
				t.Fatalf("DPU-cache read %d: wrong bytes (a handler-owned Data slice was recycled)", i)
			}
		}
		if cached := svc.DPUCache[[2]uint64{ino, 0}]; !bytes.Equal(cached, body[:kvfs.BlockSize]) {
			t.Error("the DPU cache's own page was overwritten")
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}

// EncodeDirEntries carries each name's length in 16 bits. Its one caller
// lists a KVFS directory, and KVFS refuses a name over MaxNameLen on every
// path that makes one (create, mkdir, the target of a rename), so no name it
// lists is longer than the encoding holds.
func TestListedNamesFitDirEntryEncoding(t *testing.T) {
	if kvfs.MaxNameLen > math.MaxUint16 {
		t.Fatalf("kvfs.MaxNameLen %d does not fit a dirent's 16-bit name length", kvfs.MaxNameLen)
	}
	m, d, _ := newKVFSDispatcher(t)
	long := "/" + strings.Repeat("n", kvfs.MaxNameLen+1)
	m.Eng.Go("test", func(p *sim.Proc) {
		mk := func(op uint32, hdr ReqHeader, payload string) nvmefs.Response {
			return call(p, d, op, nvme.DispatchKVFS, hdr, []byte(payload))
		}
		for _, op := range []uint32{nvme.FileOpCreate, nvme.FileOpMkdir} {
			if r := mk(op, ReqHeader{PathLen: uint16(len(long))}, long); r.Status == nvme.StatusOK {
				t.Errorf("op %d made a %d-byte name", op, len(long)-1)
			}
		}
		mk(nvme.FileOpCreate, ReqHeader{PathLen: 2}, "/a")
		if r := mk(nvme.FileOpRename, ReqHeader{PathLen: 2, Aux: uint16(len(long))}, "/a"+long); r.Status == nvme.StatusOK {
			t.Errorf("rename made a %d-byte name", len(long)-1)
		}
		r := mk(nvme.FileOpReaddir, ReqHeader{PathLen: 1}, "/")
		names, _, err := DecodeDirEntries(r.Data)
		if err != nil || !slices.Equal(names, []string{"a"}) {
			t.Errorf("readdir / = %q, %v; want [a]", names, err)
		}
	})
	m.Eng.Run()
	m.Eng.Shutdown()
}
