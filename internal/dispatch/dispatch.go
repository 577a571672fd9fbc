package dispatch

import (
	"errors"
	"fmt"

	"dpc/internal/cache"
	"dpc/internal/dfs"
	"dpc/internal/kvfs"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// Service bundles one file service (KVFS or the offloaded DFS client) with
// its hybrid-cache control plane.
type Service struct {
	// Exactly one of KVFS / DFS is set.
	KVFS *kvfs.FS
	DFS  *dfs.Core
	// Ctl is the hybrid-cache control plane for this service; nil when the
	// cache is disabled.
	Ctl *cache.Ctl

	// DPUCache, when non-nil, is a fully DPU-resident page cache (the
	// "cache entirely offloaded to the DPU" design the paper argues
	// against in §3.3): hits avoid the backend but every hit still pays a
	// PCIe transfer back to the host. Used by the cache-placement
	// ablation. Keys are (ino, lpn); capacity is DPUCacheCap pages.
	DPUCache    map[[2]uint64][]byte
	DPUCacheCap int
	dpuCacheLRU [][2]uint64
}

// dpuCacheGet looks up the DPU-resident cache.
func (s *Service) dpuCacheGet(ino, lpn uint64) ([]byte, bool) {
	d, ok := s.DPUCache[[2]uint64{ino, lpn}]
	return d, ok
}

// dpuCachePut inserts with simple FIFO eviction.
func (s *Service) dpuCachePut(ino, lpn uint64, data []byte) {
	key := [2]uint64{ino, lpn}
	if _, ok := s.DPUCache[key]; !ok {
		s.dpuCacheLRU = append(s.dpuCacheLRU, key)
		for len(s.dpuCacheLRU) > s.DPUCacheCap {
			victim := s.dpuCacheLRU[0]
			s.dpuCacheLRU = s.dpuCacheLRU[1:]
			delete(s.DPUCache, victim)
		}
	}
	s.DPUCache[key] = append([]byte(nil), data...)
}

// backendRead reads up to len(dst) bytes at off into dst, the one read path
// of both backends, and returns how many it read.
func (s *Service) backendRead(p *sim.Proc, ino, off uint64, dst []byte) (int, error) {
	if s.KVFS != nil {
		return s.KVFS.ReadInto(p, ino, off, dst)
	}
	return s.DFS.ReadInto(p, ino, off, dst)
}

func (s *Service) backendWrite(p *sim.Proc, ino, off uint64, data []byte) error {
	if s.KVFS != nil {
		return s.KVFS.Write(p, ino, off, data)
	}
	return s.DFS.Write(p, ino, off, data)
}

// Dispatcher is the DPU IO_Dispatch module: an nvmefs.Handler.
type Dispatcher struct {
	m        *model.Machine
	services [2]*Service // indexed by nvme.DispatchKVFS / nvme.DispatchDFS

	// Published as dispatch.* when obs is on.
	Requests   stats.Counter
	CacheFills stats.Counter

	// Per-tenant accounting, populated by EnableTenants on multi-tenant
	// systems; empty (zero registrations, zero per-request work) otherwise.
	tenantReqs  []*obs.Counter
	tenantBytes []*obs.Counter

	// o records per-request spans; nil when disabled.
	o *obs.Obs
}

// New creates a dispatcher. Either service may be nil.
func New(m *model.Machine, kvfsSvc, dfsSvc *Service) *Dispatcher {
	d := &Dispatcher{m: m, o: m.Obs}
	d.services[nvme.DispatchKVFS] = kvfsSvc
	d.services[nvme.DispatchDFS] = dfsSvc
	d.o.Publish("dispatch.requests", d.Requests.Loc())
	d.o.Publish("dispatch.cache_fills", d.CacheFills.Loc())
	return d
}

// EnableTenants registers per-tenant request/byte counters for n tenants.
// Called once at system assembly on multi-tenant drivers; single-tenant
// systems never call it, keeping their metric key set unchanged.
func (d *Dispatcher) EnableTenants(n int) {
	if d.o == nil || n < 2 || d.tenantReqs != nil {
		return
	}
	for t := 0; t < n; t++ {
		d.tenantReqs = append(d.tenantReqs, d.o.Counter(fmt.Sprintf("dispatch.t%d.requests", t)))
		d.tenantBytes = append(d.tenantBytes, d.o.Counter(fmt.Sprintf("dispatch.t%d.bytes", t)))
	}
}

// opSpanNames maps FileOp codes to constant span names so the traced path
// never builds a string per request.
var opSpanNames = [...]string{
	nvme.FileOpNop:        "dispatch.nop",
	nvme.FileOpLookup:     "dispatch.lookup",
	nvme.FileOpCreate:     "dispatch.create",
	nvme.FileOpOpen:       "dispatch.open",
	nvme.FileOpRead:       "dispatch.read",
	nvme.FileOpWrite:      "dispatch.write",
	nvme.FileOpFlush:      "dispatch.flush",
	nvme.FileOpGetattr:    "dispatch.getattr",
	nvme.FileOpSetattr:    "dispatch.setattr",
	nvme.FileOpMkdir:      "dispatch.mkdir",
	nvme.FileOpReaddir:    "dispatch.readdir",
	nvme.FileOpUnlink:     "dispatch.unlink",
	nvme.FileOpRmdir:      "dispatch.rmdir",
	nvme.FileOpRename:     "dispatch.rename",
	nvme.FileOpTruncate:   "dispatch.truncate",
	nvme.FileOpCacheEvict: "dispatch.cache_evict",
	nvme.FileOpBarrier:    "dispatch.barrier",
}

func opSpanName(op uint32) string {
	if int(op) < len(opSpanNames) {
		return opSpanNames[op]
	}
	return "dispatch.unknown"
}

// Handle implements nvmefs.Handler.
func (d *Dispatcher) Handle(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
	s := d.o.Begin(p, opSpanName(req.SQE.FileOp))
	resp := d.handle(p, req)
	if resp.Status == nvme.StatusTransient {
		// Backend failure surfaced as a retryable transient — pin the span
		// so the flight recorder keeps the DPU-side causal tree too.
		s.Pin()
	}
	s.End(p)
	return resp
}

func (d *Dispatcher) handle(p *sim.Proc, req nvmefs.Request) nvmefs.Response {
	d.Requests.Inc()
	if req.Tenant >= 0 && req.Tenant < len(d.tenantReqs) {
		d.tenantReqs[req.Tenant].Inc()
		d.tenantBytes[req.Tenant].Add(int64(req.SQE.WriteLen) + int64(req.SQE.ReadLen))
	}
	svc := d.services[req.SQE.Dispatch&1]
	if svc == nil {
		return nvmefs.Response{Status: nvme.StatusInvalid}
	}
	hdr, err := DecodeReqHeader(req.Header)
	if err != nil {
		return nvmefs.Response{Status: nvme.StatusInvalid}
	}

	switch req.SQE.FileOp {
	case nvme.FileOpRead:
		return d.handleRead(p, svc, hdr, req)
	case nvme.FileOpWrite:
		return d.handleWrite(p, svc, hdr, req.Data)
	case nvme.FileOpCacheEvict:
		if svc.Ctl == nil {
			return nvmefs.Response{Status: nvme.StatusInvalid}
		}
		freed := svc.Ctl.ReclaimBucket(p, hdr.Ino, hdr.Off, int(hdr.Len))
		return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(freed)}
	case nvme.FileOpFlush:
		// fsync: make one inode's dirty pages durable. With a WAL attached
		// this journals (group commit) unless the host demanded synchronous
		// write-back (FlagWriteback) — internal syncs before direct I/O need
		// the pages in the backend, not merely on the log. A failure surfaces
		// as a retryable transient: neither path acknowledged anything, and
		// pages stay dirty, so the host's retried Flush is idempotent.
		if svc.Ctl != nil {
			var flushed int
			var err error
			if hdr.Flags&FlagWriteback != 0 {
				flushed, err = svc.Ctl.FlushIno(p, hdr.Ino)
			} else {
				flushed, err = svc.Ctl.SyncIno(p, hdr.Ino)
			}
			if err != nil {
				return nvmefs.Response{Status: nvme.StatusTransient}
			}
			return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(flushed)}
		}
		return nvmefs.Response{Status: nvme.StatusOK}
	case nvme.FileOpBarrier:
		if svc.Ctl != nil {
			if _, err := svc.Ctl.FlushPass(p, 1<<30); err != nil {
				return nvmefs.Response{Status: nvme.StatusTransient}
			}
		}
		return nvmefs.Response{Status: nvme.StatusOK}
	default:
		return d.handleMeta(p, svc, req.SQE.FileOp, hdr, req.Data)
	}
}

// handleRead serves a read miss. With FlagFillCache the page is installed
// into the host cache and only its entry index travels back (Result =
// idx+1); otherwise the data is returned in the read buffer. Every branch
// reads the backend into the transport's response buffer (req.ReadBuf).
func (d *Dispatcher) handleRead(p *sim.Proc, svc *Service, hdr ReqHeader, req nvmefs.Request) nvmefs.Response {
	if svc.Ctl != nil && hdr.Flags&FlagFillCache != 0 {
		ps := svc.Ctl.L.PageSize
		lpn := hdr.Off / uint64(ps)
		page := req.ReadBuf(ps)
		if len(page) < ps {
			return nvmefs.Response{Status: nvme.StatusInvalid} // no room reserved for the page
		}
		// Degraded cache: serve the read but bypass the fill — no new pages
		// enter a cache whose write-back is failing.
		degraded := svc.Ctl.Degraded()
		if !degraded {
			svc.Ctl.NotifyRead(p, hdr.Ino, lpn)
		}
		read := func() bool { return readPage(p, svc, hdr.Ino, lpn, page) }
		idx, found := -1, false
		if degraded {
			found = read()
		} else {
			idx, found = svc.Ctl.ReadFill(p, hdr.Ino, lpn, page, read)
		}
		if !found {
			return nvmefs.Response{Status: nvme.StatusNotFound}
		}
		if idx >= 0 {
			d.CacheFills.Inc()
			// Only the cache entry index travels back, in the response
			// header: RH[0]=1, RH[1:5]=index.
			return nvmefs.Response{Status: nvme.StatusOK, Header: fillHeader(req.HeaderBuf(5), idx)}
		}
		// Not filled (bucket busy, or a write overtook the read): ship the
		// bytes back instead.
		return nvmefs.Response{Status: nvme.StatusOK, Header: hdrData, Data: page}
	}
	// DPU-resident cache path (ablation): serve hits from DPU DRAM; the
	// payload still crosses PCIe in the response.
	if svc.DPUCache != nil && hdr.Len > 0 {
		lpn := hdr.Off / uint64(hdr.Len)
		if data, ok := svc.dpuCacheGet(hdr.Ino, lpn); ok && uint64(len(data)) == uint64(hdr.Len) {
			d.m.DPUExec(p, d.m.Cfg.Costs.DPUCacheCtl)
			return nvmefs.Response{Status: nvme.StatusOK, Header: hdrData, Data: data}
		}
	}
	data := req.ReadBuf(int(hdr.Len))
	n, err := svc.backendRead(p, hdr.Ino, hdr.Off, data)
	if err != nil {
		return errResponse(err)
	}
	data = data[:n]
	if svc.DPUCache != nil && hdr.Len > 0 && len(data) == int(hdr.Len) {
		svc.dpuCachePut(hdr.Ino, hdr.Off/uint64(hdr.Len), data)
	}
	return nvmefs.Response{Status: nvme.StatusOK, Header: hdrData, Data: data}
}

// Shared read-only response headers: RH[0]=0 on a read whose bytes ride
// back in the response, RH[0]=1 on a done namespace op. The transport only
// reads a Response's header (into host memory, or into a copy for the
// retry-dedup cache), so one slice serves every response.
var (
	hdrData = []byte{0}
	hdrDone = []byte{1}
)

// fillHeader encodes a "page installed in cache" response header into h,
// five bytes long, and returns it.
func fillHeader(h []byte, idx int) []byte {
	h[0], h[1], h[2], h[3], h[4] = 1, byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24)
	return h
}

// ParseFillHeader decodes a read response header: filled reports whether
// the page went into the host cache instead of the read buffer.
func ParseFillHeader(h []byte) (filled bool, idx int) {
	if len(h) >= 5 && h[0] == 1 {
		return true, int(h[1]) | int(h[2])<<8 | int(h[3])<<16 | int(h[4])<<24
	}
	return false, 0
}

// readPage fills page with one full page from the backend, zero-padded at
// EOF; false when there is nothing at lpn.
func readPage(p *sim.Proc, svc *Service, ino, lpn uint64, page []byte) bool {
	n, err := svc.backendRead(p, ino, lpn*uint64(len(page)), page)
	if err != nil || n == 0 {
		return false
	}
	clear(page[n:])
	return true
}

func (d *Dispatcher) handleWrite(p *sim.Proc, svc *Service, hdr ReqHeader, data []byte) nvmefs.Response {
	if int(hdr.Len) < len(data) {
		data = data[:hdr.Len]
	}
	if hdr.Flags&FlagInvalidate != 0 && !bumpGen(p, svc, hdr.Ino) {
		return nvmefs.Response{Status: nvme.StatusTransient}
	}
	err := svc.backendWrite(p, hdr.Ino, hdr.Off, data)
	if svc.Ctl != nil {
		// Landed or failed part-way, the write may have changed the pages: a
		// fill that read them before it finished must not install them.
		svc.Ctl.NoteWrite(hdr.Ino)
	}
	if err != nil {
		return errResponse(err)
	}
	return nvmefs.Response{Status: nvme.StatusOK, Result: uint32(len(data))}
}

// handleMeta executes namespace operations. Paths arrive in the payload:
// the primary path in data[:hdr.PathLen], an optional second path (rename)
// in data[hdr.PathLen : hdr.PathLen+hdr.Aux].
func (d *Dispatcher) handleMeta(p *sim.Proc, svc *Service, op uint32, hdr ReqHeader, data []byte) nvmefs.Response {
	if int(hdr.PathLen)+int(hdr.Aux) > len(data) {
		return nvmefs.Response{Status: nvme.StatusInvalid}
	}
	path := string(data[:hdr.PathLen])
	path2 := string(data[hdr.PathLen : int(hdr.PathLen)+int(hdr.Aux)])

	if svc.KVFS != nil {
		return d.kvfsMeta(p, svc, op, hdr, path, path2)
	}
	return d.dfsMeta(p, svc.DFS, op, hdr, path)
}

// bumpGen journals a WAL generation bump for ino before a metadata op that
// invalidates journaled page content (truncate, unlink). ok=false means the
// bump did not commit and the op must fail with a retryable transient —
// proceeding would let a crash resurrect pre-op pages.
func bumpGen(p *sim.Proc, svc *Service, ino uint64) bool {
	if svc.Ctl == nil || svc.Ctl.WAL() == nil {
		return true
	}
	return svc.Ctl.BumpGen(p, ino) == nil
}

func (d *Dispatcher) kvfsMeta(p *sim.Proc, svc *Service, op uint32, hdr ReqHeader, path, path2 string) nvmefs.Response {
	fs := svc.KVFS
	switch op {
	case nvme.FileOpLookup:
		ino, err := fs.Lookup(p, path)
		if err != nil {
			return errResponse(err)
		}
		a, err := fs.Getattr(p, ino)
		if err != nil {
			return errResponse(err)
		}
		return nvmefs.Response{Status: nvme.StatusOK, Header: a.Marshal()}
	case nvme.FileOpCreate:
		ino, err := fs.Create(p, path)
		if err != nil {
			return errResponse(err)
		}
		a := kvfs.Attr{Ino: ino, Mode: kvfs.ModeFile, Nlink: 1}
		return nvmefs.Response{Status: nvme.StatusOK, Header: a.Marshal()}
	case nvme.FileOpMkdir:
		ino, err := fs.Mkdir(p, path)
		if err != nil {
			return errResponse(err)
		}
		a := kvfs.Attr{Ino: ino, Mode: kvfs.ModeDir, Nlink: 2}
		return nvmefs.Response{Status: nvme.StatusOK, Header: a.Marshal()}
	case nvme.FileOpGetattr:
		a, err := fs.Getattr(p, hdr.Ino)
		if err != nil {
			return errResponse(err)
		}
		return nvmefs.Response{Status: nvme.StatusOK, Header: a.Marshal()}
	case nvme.FileOpReaddir:
		ents, err := fs.Readdir(p, path)
		if err != nil {
			return errResponse(err)
		}
		names := make([]string, len(ents))
		inos := make([]uint64, len(ents))
		for i, e := range ents {
			names[i], inos[i] = e.Name, e.Ino
		}
		return nvmefs.Response{Status: nvme.StatusOK, Header: hdrDone, Data: EncodeDirEntries(names, inos)}
	case nvme.FileOpUnlink:
		if svc.Ctl != nil && svc.Ctl.WAL() != nil {
			if ino, err := fs.Lookup(p, path); err == nil {
				if !bumpGen(p, svc, ino) {
					return nvmefs.Response{Status: nvme.StatusTransient}
				}
			}
		}
		return statusOnly(fs.Unlink(p, path))
	case nvme.FileOpRmdir:
		return statusOnly(fs.Rmdir(p, path))
	case nvme.FileOpRename:
		return statusOnly(fs.Rename(p, path, path2))
	case nvme.FileOpTruncate:
		if !bumpGen(p, svc, hdr.Ino) {
			return nvmefs.Response{Status: nvme.StatusTransient}
		}
		err := fs.Truncate(p, hdr.Ino)
		if svc.Ctl != nil {
			svc.Ctl.NoteWrite(hdr.Ino)
		}
		return statusOnly(err)
	case nvme.FileOpSetattr:
		// Size-only setattr: hdr.Off carries the new EOF (buffered writes
		// publish it before their pages land in the cache).
		return statusOnly(fs.SetSize(p, hdr.Ino, hdr.Off))
	}
	return nvmefs.Response{Status: nvme.StatusInvalid}
}

func (d *Dispatcher) dfsMeta(p *sim.Proc, core *dfs.Core, op uint32, hdr ReqHeader, path string) nvmefs.Response {
	switch op {
	case nvme.FileOpCreate:
		ino, err := core.Create(p, path)
		if err != nil {
			return errResponse(err)
		}
		a := kvfs.Attr{Ino: ino, Mode: kvfs.ModeFile, Nlink: 1}
		return nvmefs.Response{Status: nvme.StatusOK, Header: a.Marshal()}
	case nvme.FileOpLookup, nvme.FileOpOpen:
		ino, size, err := core.Lookup(p, path)
		if err != nil {
			return errResponse(err)
		}
		a := kvfs.Attr{Ino: ino, Mode: kvfs.ModeFile, Size: size, Nlink: 1}
		return nvmefs.Response{Status: nvme.StatusOK, Header: a.Marshal()}
	case nvme.FileOpSetattr:
		return statusOnly(core.SetSize(p, hdr.Ino, hdr.Off))
	}
	return nvmefs.Response{Status: nvme.StatusInvalid}
}

func statusOnly(err error) nvmefs.Response {
	if err != nil {
		return errResponse(err)
	}
	return nvmefs.Response{Status: nvme.StatusOK, Header: hdrDone}
}

// errResponse maps file system errors onto NVMe completion statuses.
func errResponse(err error) nvmefs.Response {
	switch {
	case errors.Is(err, kvfs.ErrNotFound) || errors.Is(err, dfs.ErrNotFound):
		return nvmefs.Response{Status: nvme.StatusNotFound}
	case errors.Is(err, kvfs.ErrExists) || errors.Is(err, dfs.ErrExists):
		return nvmefs.Response{Status: nvme.StatusExists}
	case errors.Is(err, kvfs.ErrNotDir):
		return nvmefs.Response{Status: nvme.StatusNotDir}
	case errors.Is(err, kvfs.ErrIsDir):
		return nvmefs.Response{Status: nvme.StatusIsDir}
	case errors.Is(err, kvfs.ErrNotEmpty):
		return nvmefs.Response{Status: nvme.StatusNotEmpty}
	default:
		return nvmefs.Response{Status: nvme.StatusIOError}
	}
}
