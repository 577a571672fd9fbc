package dpc

import (
	"errors"
	"fmt"
	"time"

	"dpc/internal/bufpool"
	"dpc/internal/cache"
	"dpc/internal/dispatch"
	"dpc/internal/kvfs"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// sizeTable is a service-wide view of each inode's published EOF, shared by
// every client (and thus every File handle) of that service. File.Size alone
// is per-handle state: a handle opened before another handle extended the
// file would clamp buffered reads to its stale size and silently truncate
// data that is already in the cache. The table is updated at every point a
// client learns an authoritative size — create, lookup, setattr, extending
// writes, truncate — and, when it has an entry, wins over the handle's
// snapshot. Entries for unlinked files linger, which is harmless: both
// backends allocate inode numbers monotonically, so a dead entry can never
// be mistaken for a new file.
type sizeTable struct {
	m map[uint64]uint64
}

func newSizeTable() *sizeTable { return &sizeTable{m: map[uint64]uint64{}} }

func (t *sizeTable) get(ino uint64) (uint64, bool) {
	sz, ok := t.m[ino]
	return sz, ok
}

// setMax merges a size observation: sizes only grow through it, so a lookup
// response that raced a concurrent extend can never shrink the published EOF.
func (t *sizeTable) setMax(ino, size uint64) {
	if cur, ok := t.m[ino]; !ok || size > cur {
		t.m[ino] = size
	}
}

// set overwrites the entry: truncate is the one path where EOF shrinks.
func (t *sizeTable) set(ino, size uint64) { t.m[ino] = size }

// Errors returned by the client API.
var (
	ErrNotFound = errors.New("dpc: not found")
	ErrExists   = errors.New("dpc: exists")
	ErrNotDir   = errors.New("dpc: not a directory")
	ErrIsDir    = errors.New("dpc: is a directory")
	ErrNotEmpty = errors.New("dpc: directory not empty")
	ErrIO       = errors.New("dpc: I/O error")
	// ErrTimeout is returned when a command exhausted its retry budget
	// after repeated deadline expiries (fault runs only).
	ErrTimeout = errors.New("dpc: command timed out")
)

// pinFault marks an op's span anomalous for the telemetry flight recorder
// when err is a fault-class outcome — an I/O error or a retry-budget
// timeout. Namespace results (not-found, exists, not-a-directory, ...) are
// ordinary answers, not faults, and stay unpinned. Without an attached
// recorder the pin is a single bool store on the open span record.
func pinFault(s obs.Span, err error) {
	if err != nil && (errors.Is(err, ErrIO) || errors.Is(err, ErrTimeout)) {
		s.Pin()
	}
}

func statusErr(s uint16) error {
	switch s {
	case nvme.StatusOK:
		return nil
	case nvme.StatusNotFound:
		return ErrNotFound
	case nvme.StatusExists:
		return ErrExists
	case nvme.StatusNotDir:
		return ErrNotDir
	case nvme.StatusIsDir:
		return ErrIsDir
	case nvme.StatusNotEmpty:
		return ErrNotEmpty
	case nvme.StatusTimeout:
		return ErrTimeout
	default:
		return fmt.Errorf("%w: %s", ErrIO, nvme.StatusString(s))
	}
}

// Client issues file operations to one of the system's services through
// nvme-fs. It is the host side of DPC: the fs-adapter (hybrid-cache data
// plane plus request conversion) and the NVME-INI driver.
//
// qid selects the nvme-fs queue; callers typically pass their thread index
// so threads spread across queues.
type Client struct {
	sys         *System
	dispatchBit uint8
	cacheHost   *cache.Host
	ctl         *cache.Ctl

	// sizes is the service-wide EOF table shared with every other client of
	// the same service (see sizeTable); pool recycles hot-path scratch
	// buffers (read-modify-write bases) so steady-state data ops allocate
	// nothing.
	sizes *sizeTable
	pool  *bufpool.Pool

	// Tenant scoping. A tenant-scoped client (tenant >= 0) confines every
	// submission to its tenant's queue group [qbase, qbase+qcount): caller
	// qids are folded into the group, so existing thread-index conventions
	// work unchanged over a shared driver. An unscoped client (tenant -1,
	// qcount 0) passes qids through untouched.
	tenant int
	qbase  int
	qcount int

	// Observability handles, cached at construction so the hot paths never
	// look anything up. All nil when the system has no Obs attached.
	o      *obs.Obs
	hWrite *obs.Histogram
	hRead  *obs.Histogram
	hMeta  *obs.Histogram
	hSync  *obs.Histogram
}

// newClient builds a client and caches its observability handles. tenant -1
// is an unscoped client (the whole queue range, the classic metric names);
// tenant >= 0 confines the client to that tenant's queue group and registers
// its latency histograms under the t<N>. prefix instead, so per-tenant tails
// are separable in telemetry and dpcreport.
func newClient(sys *System, bit uint8, host *cache.Host, ctl *cache.Ctl, sizes *sizeTable, tenant int) *Client {
	c := &Client{sys: sys, dispatchBit: bit, cacheHost: host, ctl: ctl,
		sizes: sizes, pool: sys.pool, tenant: -1}
	if tenant >= 0 && sys.Driver.Tenants() > 0 {
		c.tenant = tenant
		c.qbase, c.qcount = sys.Driver.TenantQueues(tenant)
	}
	if o := sys.M.Obs; o.Enabled() {
		c.o = o
		if c.tenant >= 0 {
			c.hWrite = o.Histogram(fmt.Sprintf("t%d.client.write.latency", c.tenant))
			c.hRead = o.Histogram(fmt.Sprintf("t%d.client.read.latency", c.tenant))
			c.hMeta = o.Histogram(fmt.Sprintf("t%d.client.meta.latency", c.tenant))
			c.hSync = o.Histogram(fmt.Sprintf("t%d.client.sync.latency", c.tenant))
		} else {
			c.hWrite = o.Histogram("client.write.latency")
			c.hRead = o.Histogram("client.read.latency")
			c.hMeta = o.Histogram("client.meta.latency")
			c.hSync = o.Histogram("client.sync.latency")
		}
	}
	return c
}

// Tenant returns the client's tenant ID, or -1 for an unscoped client.
func (c *Client) Tenant() int { return c.tenant }

// mapQ folds a caller's queue ID into the client's tenant queue group; an
// unscoped client passes it through (the driver wraps modulo Queues).
func (c *Client) mapQ(qid int) int {
	if c.qcount <= 0 {
		return qid
	}
	if qid < 0 {
		qid = -qid
	}
	return c.qbase + qid%c.qcount
}

// queueCount is the number of queues this client may spread work across.
func (c *Client) queueCount() int {
	if c.qcount > 0 {
		return c.qcount
	}
	return c.sys.Driver.Queues()
}

// clientSpanNames maps FileOp codes to constant span names so tracing a
// metadata op never builds a string.
var clientSpanNames = [...]string{
	nvme.FileOpNop:        "client.nop",
	nvme.FileOpLookup:     "client.lookup",
	nvme.FileOpCreate:     "client.create",
	nvme.FileOpOpen:       "client.open",
	nvme.FileOpRead:       "client.read",
	nvme.FileOpWrite:      "client.write",
	nvme.FileOpFlush:      "client.fsync",
	nvme.FileOpGetattr:    "client.getattr",
	nvme.FileOpSetattr:    "client.setattr",
	nvme.FileOpMkdir:      "client.mkdir",
	nvme.FileOpReaddir:    "client.readdir",
	nvme.FileOpUnlink:     "client.unlink",
	nvme.FileOpRmdir:      "client.rmdir",
	nvme.FileOpRename:     "client.rename",
	nvme.FileOpTruncate:   "client.truncate",
	nvme.FileOpCacheEvict: "client.cache_evict",
	nvme.FileOpBarrier:    "client.sync",
}

func clientSpanName(op uint32) string {
	if int(op) < len(clientSpanNames) {
		return clientSpanNames[op]
	}
	return "client.unknown"
}

// DirEntry is a directory listing entry.
type DirEntry struct {
	Name string
	Ino  uint64
}

// Stat describes a file, mirroring the KVFS 256-byte attribute.
type Stat struct {
	Ino  uint64
	Mode uint32
	Size uint64
}

// File is an open file handle.
type File struct {
	c    *Client
	Ino  uint64
	Size uint64
}

// submit sends one nvme-fs command for this service.
func (c *Client) submit(p *sim.Proc, qid int, sub nvmefs.Submission) nvmefs.Completion {
	sub.Dispatch = c.dispatchBit
	return c.sys.Driver.Submit(p, c.mapQ(qid), sub)
}

// submitBatch enqueues a burst of commands for this service on one queue and
// rings its doorbell once.
func (c *Client) submitBatch(p *sim.Proc, qid int, subs []nvmefs.Submission) []*nvmefs.Pending {
	for i := range subs {
		subs[i].Dispatch = c.dispatchBit
	}
	return c.sys.Driver.SubmitBatch(p, c.mapQ(qid), subs)
}

// metaOp runs a path-based namespace operation and decodes the attribute.
func (c *Client) metaOp(p *sim.Proc, qid int, op uint32, path, path2 string) (kvfs.Attr, error) {
	s := c.o.Begin(p, clientSpanName(op))
	start := p.Now()
	a, err := c.doMetaOp(p, qid, op, path, path2)
	c.hMeta.Observe(time.Duration(p.Now() - start))
	pinFault(s, err)
	s.End(p)
	return a, err
}

func (c *Client) doMetaOp(p *sim.Proc, qid int, op uint32, path, path2 string) (kvfs.Attr, error) {
	hdr := dispatch.ReqHeader{PathLen: uint16(len(path)), Aux: uint16(len(path2))}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp:  op,
		Header:  hdr.Marshal(),
		Payload: append([]byte(path), path2...),
		RHLen:   kvfs.AttrSize,
	})
	if err := statusErr(comp.Status); err != nil {
		return kvfs.Attr{}, err
	}
	if len(comp.Header) == kvfs.AttrSize {
		a, err := kvfs.UnmarshalAttr(comp.Header)
		return a, err
	}
	return kvfs.Attr{}, nil
}

// Create makes a new file and returns its handle.
func (c *Client) Create(p *sim.Proc, qid int, path string) (*File, error) {
	a, err := c.metaOp(p, qid, nvme.FileOpCreate, path, "")
	if err != nil {
		return nil, err
	}
	c.sizes.setMax(a.Ino, a.Size)
	return &File{c: c, Ino: a.Ino}, nil
}

// Open resolves a path and returns a handle.
func (c *Client) Open(p *sim.Proc, qid int, path string) (*File, error) {
	a, err := c.metaOp(p, qid, nvme.FileOpLookup, path, "")
	if err != nil {
		return nil, err
	}
	c.sizes.setMax(a.Ino, a.Size)
	return &File{c: c, Ino: a.Ino, Size: a.Size}, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(p *sim.Proc, qid int, path string) error {
	_, err := c.metaOp(p, qid, nvme.FileOpMkdir, path, "")
	return err
}

// Unlink removes a file.
func (c *Client) Unlink(p *sim.Proc, qid int, path string) error {
	_, err := c.metaOp(p, qid, nvme.FileOpUnlink, path, "")
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(p *sim.Proc, qid int, path string) error {
	_, err := c.metaOp(p, qid, nvme.FileOpRmdir, path, "")
	return err
}

// Rename moves a file or directory.
func (c *Client) Rename(p *sim.Proc, qid int, oldPath, newPath string) error {
	_, err := c.metaOp(p, qid, nvme.FileOpRename, oldPath, newPath)
	return err
}

// StatPath looks up a path's attributes.
func (c *Client) StatPath(p *sim.Proc, qid int, path string) (Stat, error) {
	a, err := c.metaOp(p, qid, nvme.FileOpLookup, path, "")
	if err != nil {
		return Stat{}, err
	}
	c.sizes.setMax(a.Ino, a.Size)
	return Stat{Ino: a.Ino, Mode: a.Mode, Size: a.Size}, nil
}

// Readdir lists a directory.
func (c *Client) Readdir(p *sim.Proc, qid int, path string) ([]DirEntry, error) {
	s := c.o.Begin(p, "client.readdir")
	start := p.Now()
	out, err := c.readdir(p, qid, path)
	c.hMeta.Observe(time.Duration(p.Now() - start))
	pinFault(s, err)
	s.End(p)
	return out, err
}

func (c *Client) readdir(p *sim.Proc, qid int, path string) ([]DirEntry, error) {
	hdr := dispatch.ReqHeader{PathLen: uint16(len(path))}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp:  nvme.FileOpReaddir,
		Header:  hdr.Marshal(),
		Payload: []byte(path),
		RHLen:   1,
		ReadLen: 64 * 1024,
	})
	if err := statusErr(comp.Status); err != nil {
		return nil, err
	}
	names, inos, err := dispatch.DecodeDirEntries(comp.Data)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, len(names))
	for i := range names {
		out[i] = DirEntry{Name: names[i], Ino: inos[i]}
	}
	return out, nil
}

// Sync makes one file's dirty cache pages durable (fsync). On a system
// with the cache WAL enabled the DPU acknowledges after group-committing
// the pages to the log; otherwise (and always in degraded mode) it writes
// them through to the backend.
func (f *File) Sync(p *sim.Proc, qid int) error {
	return f.sync(p, qid, 0)
}

// syncWriteback is the internal pre-direct-I/O sync: it demands the
// synchronous write-back path even when a WAL could journal instead,
// because the caller is about to read or overwrite the same range directly
// in the backend and needs the cached pages actually there.
func (f *File) syncWriteback(p *sim.Proc, qid int) error {
	return f.sync(p, qid, dispatch.FlagWriteback)
}

func (f *File) sync(p *sim.Proc, qid int, flags uint32) error {
	c := f.c
	s := c.o.Begin(p, "client.fsync")
	start := p.Now()
	hdr := dispatch.ReqHeader{Ino: f.Ino, Flags: flags}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp: nvme.FileOpFlush,
		Header: hdr.Marshal(),
		RHLen:  1,
	})
	err := statusErr(comp.Status)
	c.hSync.Observe(time.Duration(p.Now() - start))
	pinFault(s, err)
	s.End(p)
	return err
}

// Truncate cuts the file to zero length and drops every cached page of it:
// stale pages left in the hybrid cache would resurrect dead data through
// read-modify-write or the flush daemon. The invalidation runs BEFORE the
// backend truncate: InvalidateIno waits out any flusher holding a page of
// this inode, so no in-flight flush (whose EOF clamp read the pre-truncate
// size) can land after the truncate and re-extend the file.
func (f *File) Truncate(p *sim.Proc, qid int) error {
	s := f.c.o.Begin(p, "client.truncate")
	err := f.truncate(p, qid)
	pinFault(s, err)
	s.End(p)
	return err
}

func (f *File) truncate(p *sim.Proc, qid int) error {
	if f.c.cacheHost != nil {
		f.c.cacheHost.InvalidateIno(p, f.Ino)
	}
	hdr := dispatch.ReqHeader{Ino: f.Ino}
	comp := f.c.submit(p, qid, nvmefs.Submission{
		FileOp: nvme.FileOpTruncate,
		Header: hdr.Marshal(),
		RHLen:  1,
	})
	if err := statusErr(comp.Status); err != nil {
		return err
	}
	f.Size = 0
	f.c.sizes.set(f.Ino, 0)
	return nil
}

// Sync flushes the service's dirty cache pages to the backend.
func (c *Client) Sync(p *sim.Proc, qid int) error {
	s := c.o.Begin(p, "client.sync")
	start := p.Now()
	hdr := dispatch.ReqHeader{}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp: nvme.FileOpBarrier,
		Header: hdr.Marshal(),
		RHLen:  1,
	})
	err := statusErr(comp.Status)
	c.hSync.Observe(time.Duration(p.Now() - start))
	pinFault(s, err)
	s.End(p)
	return err
}

// CacheStats reports the host-side cache counters (hits, misses).
func (c *Client) CacheStats() (hits, misses int64) {
	if c.cacheHost == nil {
		return 0, 0
	}
	return c.cacheHost.Hits.Total(), c.cacheHost.Misses.Total()
}

// ---- data path ----

// Write stores data at off. With direct=true the payload goes straight to
// the DPU over nvme-fs (zero-copy DIO); cached pages covering the range are
// updated in place so buffered readers never see stale data. Buffered
// writes of any alignment land in the hybrid cache at host-memory speed —
// whole pages are inserted directly, partial pages read-modify-write — and
// are flushed asynchronously by the DPU control plane. A buffered write
// that extends the file publishes the new EOF to the backend first (one
// metadata op), so flush-time write-back can clamp whole-page flushes to
// the true size instead of inflating it to the page boundary.
func (f *File) Write(p *sim.Proc, qid int, off uint64, data []byte, direct bool) error {
	c := f.c
	s := c.o.Begin(p, "client.write")
	start := p.Now()
	err := f.write(p, qid, off, data, direct)
	c.hWrite.Observe(time.Duration(p.Now() - start))
	pinFault(s, err)
	s.End(p)
	return err
}

func (f *File) write(p *sim.Proc, qid int, off uint64, data []byte, direct bool) error {
	c := f.c
	ps := uint64(0)
	if c.cacheHost != nil {
		ps = uint64(c.cacheHost.L.PageSize)
	}
	if direct || ps == 0 || len(data) == 0 || c.cacheHost.Degraded() {
		// A degraded cache (persistent backend flush failure) routes writes
		// straight to the backend — buffering them would only grow the pool
		// of dirty pages that cannot be written back.
		return f.writeDirect(p, qid, off, data)
	}
	end := off + uint64(len(data))
	eof := f.sizeNow()
	if end > eof {
		if err := c.setSize(p, qid, f.Ino, end); err != nil {
			return err
		}
		eof = end
	}
	// Only the head and tail pages of the range can be partial; batch their
	// read-modify-write bases in one pipelined fetch instead of two blocking
	// round trips inside the loop. A missing page (hole or beyond the old
	// EOF) modifies zeros, which is what the pooled buffer arrives holding.
	// The bases live in fixed two-element arrays and pooled page buffers —
	// no per-op slice, map, or scratch allocation on this path (regression
	// test: TestBufferedWriteRMWZeroScratchAllocs).
	var (
		rmwLPNs [2]uint64
		rmwBufs [2][]byte
		nr      int
	)
	first := off / ps
	last := (end - 1) / ps
	headCov := ps - off%ps
	if headCov > uint64(len(data)) {
		headCov = uint64(len(data))
	}
	if off%ps != 0 || headCov < ps {
		rmwLPNs[nr] = first
		nr++
	}
	if last != first && end%ps != 0 {
		rmwLPNs[nr] = last
		nr++
	}
	if nr > 0 {
		var reqs [2]pageFetch
		for i := 0; i < nr; i++ {
			rmwBufs[i] = c.pool.Get(int(ps))
			reqs[i] = pageFetch{lpn: rmwLPNs[i], dst: rmwBufs[i]}
		}
		if err := c.fetchPages(p, qid, f.Ino, reqs[:nr]); err != nil {
			for i := 0; i < nr; i++ {
				c.pool.Put(rmwBufs[i])
			}
			return err
		}
	}
	for done := uint64(0); done < uint64(len(data)); {
		lpn := (off + done) / ps
		po := (off + done) % ps
		n := ps - po
		if n > uint64(len(data))-done {
			n = uint64(len(data)) - done
		}
		var page []byte
		if po == 0 && n == ps {
			page = data[done : done+n]
		} else {
			// A partial page is by construction the first or last of the
			// range, so it is one of the (at most two) registered bases.
			page = rmwBufs[0]
			if nr > 1 && lpn == rmwLPNs[1] {
				page = rmwBufs[1]
			}
			copy(page[po:], data[done:done+n])
		}
		if err := c.writePageCached(p, qid, f.Ino, lpn, page, eof); err != nil {
			for i := 0; i < nr; i++ {
				c.pool.Put(rmwBufs[i])
			}
			return err
		}
		done += n
	}
	for i := 0; i < nr; i++ {
		c.pool.Put(rmwBufs[i])
	}
	if end > f.Size {
		f.Size = end
	}
	return nil
}

// setSize publishes a new EOF to the backend (a size-only setattr).
func (c *Client) setSize(p *sim.Proc, qid int, ino, size uint64) error {
	hdr := dispatch.ReqHeader{Ino: ino, Off: size}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp: nvme.FileOpSetattr,
		Header: hdr.Marshal(),
		RHLen:  1,
	})
	if err := statusErr(comp.Status); err != nil {
		return err
	}
	c.sizes.setMax(ino, size)
	return nil
}

// sizeNow is the file's effective EOF: the service-wide table (which sees
// extends made through other handles) when it has an entry, else the
// handle's own snapshot.
func (f *File) sizeNow() uint64 {
	if sz, ok := f.c.sizes.get(f.Ino); ok {
		return sz
	}
	return f.Size
}

func (f *File) writeDirect(p *sim.Proc, qid int, off uint64, data []byte) error {
	c := f.c
	// O_DIRECT semantics, write side: buffered dirty pages must reach the
	// backend first, or a later daemon flush of a pre-write snapshot would
	// overwrite what this direct write is about to put there.
	if c.cacheHost != nil && c.cacheHost.HasDirty(p, f.Ino) {
		if err := f.syncWriteback(p, qid); err != nil {
			return err
		}
	}
	// Pipeline the MaxIO chunks: keep up to window commands in flight on the
	// caller's queue, each burst ringing the doorbell once, and retire them
	// in submission order. On error, stop submitting but drain what is
	// already in flight before reporting the first failure.
	maxIO := c.sys.Driver.MaxIO()
	w := c.sys.Driver.Window()
	var (
		pends    []*nvmefs.Pending
		burst    []nvmefs.Submission
		next     int
		firstErr error
	)
	for next < len(data) || len(pends) > 0 {
		if firstErr == nil && next < len(data) && len(pends) < w {
			burst = burst[:0]
			for next < len(data) && len(pends)+len(burst) < w {
				end := next + maxIO
				if end > len(data) {
					end = len(data)
				}
				chunk := data[next:end]
				hdr := dispatch.ReqHeader{Ino: f.Ino, Off: off + uint64(next), Len: uint32(len(chunk))}
				if next == 0 {
					// First chunk invalidates journaled page history for the
					// inode (see FlagInvalidate): the pre-write sync above left
					// the backend current, and success is only reported after
					// this chunk — and therefore the bump — completed.
					hdr.Flags = dispatch.FlagInvalidate
				}
				burst = append(burst, nvmefs.Submission{
					FileOp:  nvme.FileOpWrite,
					Header:  hdr.Marshal(),
					Payload: chunk,
				})
				next = end
			}
			pends = append(pends, c.submitBatch(p, qid, burst)...)
		}
		if len(pends) == 0 {
			break
		}
		comp := pends[0].Wait(p)
		pends = pends[1:]
		if err := statusErr(comp.Status); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	// Cache coherence: a cached copy of any page in the range (possibly
	// dirty with earlier buffered data) must not keep — and later flush —
	// stale bytes over what the backend now holds.
	if c.cacheHost != nil && len(data) > 0 {
		ps := uint64(c.cacheHost.L.PageSize)
		for done := uint64(0); done < uint64(len(data)); {
			lpn := (off + done) / ps
			po := (off + done) % ps
			n := ps - po
			if n > uint64(len(data))-done {
				n = uint64(len(data)) - done
			}
			c.cacheHost.MergeIfPresent(p, f.Ino, lpn, int(po), data[done:done+n])
			done += n
		}
	}
	if len(data) > 0 {
		end := off + uint64(len(data))
		// The backend learned the new EOF from the write itself; publish it
		// so other handles' buffered reads are not clamped to a stale size.
		c.sizes.setMax(f.Ino, end)
		if end > f.Size {
			f.Size = end
		}
	}
	return nil
}

// writePageCached inserts one page into the hybrid cache, asking the DPU to
// reclaim space when the bucket is full (the paper's front-end write flow).
// eof is the file's published size: the write-through fallback trims the
// page to it so a bypassing write never extends the file past its EOF.
func (c *Client) writePageCached(p *sim.Proc, qid int, ino, lpn uint64, page []byte, eof uint64) error {
	for attempt := 0; attempt < 4; attempt++ {
		if c.cacheHost.WritePage(p, ino, lpn, page) {
			return nil
		}
		hdr := dispatch.ReqHeader{Ino: ino, Off: lpn, Len: 4}
		comp := c.submit(p, qid, nvmefs.Submission{
			FileOp: nvme.FileOpCacheEvict,
			Header: hdr.Marshal(),
			RHLen:  1,
		})
		if err := statusErr(comp.Status); err != nil {
			return err
		}
	}
	// The bucket would not drain (all entries hot); write through instead.
	off := lpn * uint64(c.cacheHost.L.PageSize)
	if off >= eof {
		return nil
	}
	if end := off + uint64(len(page)); end > eof {
		page = page[:eof-off]
	}
	hdr := dispatch.ReqHeader{Ino: ino, Off: off, Len: uint32(len(page))}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp:  nvme.FileOpWrite,
		Header:  hdr.Marshal(),
		Payload: page,
	})
	if err := statusErr(comp.Status); err != nil {
		return err
	}
	// Cache coherence, as in writeDirect: a DPU fill whose backend read
	// predates this write may have installed the old page while the write was
	// in flight, and buffered reads would serve it as current.
	c.cacheHost.MergeIfPresent(p, ino, lpn, 0, page)
	return nil
}

// Read returns up to n bytes at off: ReadInto on a fresh buffer, nil when
// nothing was read.
func (f *File) Read(p *sim.Proc, qid int, off uint64, n int, direct bool) ([]byte, error) {
	out := make([]byte, max(n, 0))
	got, err := f.ReadInto(p, qid, off, out, direct)
	if err != nil || got == 0 {
		return nil, err
	}
	return out[:got], nil
}

// ReadInto reads up to len(dst) bytes at off into dst and returns the byte
// count. Buffered reads of any alignment go through the hybrid cache: hits
// are served from host memory with no PCIe traffic; misses are filled by the
// DPU (which also drives the prefetcher). Like a kernel page-cache read, the
// result is clamped to the effective EOF and holes read as zeros. Direct
// reads DMA — or inline-deliver — straight into dst. dst bytes past the
// returned count, or after an error, are unspecified.
func (f *File) ReadInto(p *sim.Proc, qid int, off uint64, dst []byte, direct bool) (int, error) {
	c := f.c
	s := c.o.Begin(p, "client.read")
	start := p.Now()
	got, err := f.readInto(p, qid, off, dst, direct)
	c.hRead.Observe(time.Duration(p.Now() - start))
	pinFault(s, err)
	s.End(p)
	return got, err
}

func (f *File) readInto(p *sim.Proc, qid int, off uint64, dst []byte, direct bool) (int, error) {
	c := f.c
	ps := uint64(0)
	if c.cacheHost != nil {
		ps = uint64(c.cacheHost.L.PageSize)
	}
	if direct || ps == 0 || len(dst) == 0 {
		return f.readDirectInto(p, qid, off, dst)
	}
	eof := f.sizeNow()
	if off >= eof {
		return 0, nil
	}
	n := len(dst)
	if max := eof - off; uint64(n) > max {
		n = int(max)
	}
	dst = dst[:n]
	// Holes leave their range of dst untouched, so it must start zeroed.
	for i := range dst {
		dst[i] = 0
	}
	if err := f.readBuffered(p, qid, off, dst); err != nil {
		return 0, err
	}
	return n, nil
}

// readBuffered fills dst — already clamped to EOF and zeroed — through the
// hybrid cache. The request array is stack-sized for reads spanning up to
// four pages, the common case, so cache-hit reads allocate nothing.
func (f *File) readBuffered(p *sim.Proc, qid int, off uint64, dst []byte) error {
	c := f.c
	ps := uint64(c.cacheHost.L.PageSize)
	n := len(dst)
	var reqArr [4]pageFetch
	reqs := reqArr[:0]
	for done := 0; done < n; {
		lpn := (off + uint64(done)) / ps
		po := (off + uint64(done)) % ps
		k := int(ps - po)
		if k > n-done {
			k = n - done
		}
		reqs = append(reqs, pageFetch{lpn: lpn, po: int(po), dst: dst[done : done+k]})
		done += k
	}
	return c.fetchPages(p, qid, f.Ino, reqs)
}

func (f *File) readDirectInto(p *sim.Proc, qid int, off uint64, out []byte) (int, error) {
	c := f.c
	// O_DIRECT semantics: dirty buffered pages must reach the backend before
	// a direct read, or the reader sees pre-write data.
	if c.cacheHost != nil && c.cacheHost.HasDirty(p, f.Ino) {
		if err := f.syncWriteback(p, qid); err != nil {
			return 0, err
		}
	}
	n := len(out)
	if n <= 0 {
		return 0, nil
	}
	// Pipeline the MaxIO chunks on the caller's queue under the in-flight
	// window, one doorbell per burst. Each chunk's ReadInto aims the IRQ-side
	// copy (or inline delivery) straight at its slice of out, so retiring a
	// completion moves no bytes. Chunks retire in submission order; the first
	// short chunk marks EOF, after which the remaining in-flight chunks (all
	// past it) are drained and discarded.
	maxIO := c.sys.Driver.MaxIO()
	w := c.sys.Driver.Window()
	type chunk struct{ off, want int }
	var (
		pends    []*nvmefs.Pending
		chunks   []chunk
		burst    []nvmefs.Submission
		next     int
		got      int
		short    bool
		firstErr error
	)
	for next < n || len(pends) > 0 {
		if firstErr == nil && !short && next < n && len(pends) < w {
			burst = burst[:0]
			for next < n && len(pends)+len(burst) < w {
				want := n - next
				if want > maxIO {
					want = maxIO
				}
				hdr := dispatch.ReqHeader{Ino: f.Ino, Off: off + uint64(next), Len: uint32(want)}
				burst = append(burst, nvmefs.Submission{
					FileOp:   nvme.FileOpRead,
					Header:   hdr.Marshal(),
					RHLen:    1,
					ReadLen:  want,
					ReadInto: out[next : next+want],
				})
				chunks = append(chunks, chunk{next, want})
				next = next + want
			}
			pends = append(pends, c.submitBatch(p, qid, burst)...)
		}
		if len(pends) == 0 {
			break
		}
		comp := pends[0].Wait(p)
		ck := chunks[0]
		pends, chunks = pends[1:], chunks[1:]
		if short {
			// EOF wins over anything a later chunk reports: chunks retire in
			// submission order, so every chunk retiring after the first short
			// one reads a range entirely past the EOF that chunk observed.
			// Neither its payload nor its failure (a straggler fault) can
			// change the bytes below EOF already assembled in out.
			continue
		}
		if err := statusErr(comp.Status); err != nil {
			// A failure below EOF makes the result incomplete. Record the
			// first one, stop submitting, and keep draining what is already
			// in flight (mirroring writeDirect) so no completion — and no
			// late error that deserves at least its retry accounting — is
			// abandoned mid-air.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if firstErr != nil {
			continue // draining after a failure; out is already condemned
		}
		if len(comp.Data) > 0 {
			copy(out[ck.off:], comp.Data) // self-copy no-op when ReadInto landed it
		}
		got = ck.off + len(comp.Data)
		if len(comp.Data) < ck.want {
			short = true // EOF
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return got, nil
}

// pageFetch is one page's worth of a multi-page cached operation: the page's
// bytes from offset po onward are copied into dst (len(dst) ≤ PageSize-po).
// Pages absent from both cache and backend (holes, beyond EOF) leave dst
// untouched, so callers see zeros in a fresh buffer.
type pageFetch struct {
	lpn uint64
	po  int
	dst []byte
}

// pageMiss is one absent page on its way through the fill protocol. It names
// its request by index into the caller's slice — not by pointer — so a
// stack-allocated request array (the RMW and small-read paths) never escapes
// to the heap through the miss queue.
type pageMiss struct {
	idx  int
	pend *nvmefs.Pending
}

// missSubmission asks the DPU to install the page in the host cache. The
// cached read path has no other way to the backend: the cache may hold bytes
// newer than the backend's, so a read never goes around it.
func missSubmission(ino, lpn, ps uint64) nvmefs.Submission {
	hdr := dispatch.ReqHeader{Ino: ino, Off: lpn * ps, Len: uint32(ps), Flags: dispatch.FlagFillCache}
	return nvmefs.Submission{FileOp: nvme.FileOpRead, Header: hdr.Marshal(), RHLen: 8, ReadLen: int(ps)}
}

// fetchPages serves a batch of pages through the hybrid cache: probe, fill,
// re-probe. Hits are copied straight out of host memory (a lookup waits out
// a held entry lock, so a miss means the page is absent); misses are filled
// by the DPU with their submissions pipelined under the client's in-flight
// window and striped across queues starting at qid, each wave's per-queue
// share riding a single doorbell. Waits retire in submission order;
// completions that finish early recycle their slot and CID at IRQ time, so
// the window keeps moving regardless of wait order.
func (c *Client) fetchPages(p *sim.Proc, qid int, ino uint64, reqs []pageFetch) error {
	ps := uint64(c.cacheHost.L.PageSize)
	// Hits copy straight from host memory into each request's dst
	// (LookupInto: no intermediate page slice); the miss queue is only
	// materialized when a miss actually occurs, so the all-hit fast path
	// allocates nothing.
	var queue []pageMiss
	for i := range reqs {
		if !c.cacheHost.LookupInto(p, ino, reqs[i].lpn, reqs[i].po, reqs[i].dst) {
			queue = append(queue, pageMiss{idx: i})
		}
	}
	if len(queue) == 0 {
		return nil
	}
	w := c.sys.Driver.Window()
	stripes := c.queueCount()
	if stripes > w {
		stripes = w
	}
	inflight := make([]pageMiss, 0, w)
	groups := make([][]pageMiss, stripes)
	seq := 0
	for len(queue) > 0 || len(inflight) > 0 {
		if len(queue) > 0 && len(inflight) < w {
			take := w - len(inflight)
			if take > len(queue) {
				take = len(queue)
			}
			wave := queue[:take]
			queue = queue[take:]
			// Group the wave by stripe (a fixed slice, not a map, so the
			// submit order is deterministic) and batch each group.
			for s := range groups {
				groups[s] = groups[s][:0]
			}
			for _, ms := range wave {
				s := seq % stripes
				seq++
				groups[s] = append(groups[s], ms)
			}
			for s, g := range groups {
				if len(g) == 0 {
					continue
				}
				subs := make([]nvmefs.Submission, len(g))
				for i := range g {
					subs[i] = missSubmission(ino, reqs[g[i].idx].lpn, ps)
				}
				pends := c.submitBatch(p, (qid+s)%c.queueCount(), subs)
				for i := range g {
					g[i].pend = pends[i]
				}
				inflight = append(inflight, g...)
			}
		}
		ms := inflight[0]
		inflight = inflight[1:]
		comp := ms.pend.Wait(p)
		req := &reqs[ms.idx]
		if err := statusErr(comp.Status); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // hole or beyond EOF: dst keeps its zeros
			}
			return err
		}
		if filled, _ := dispatch.ParseFillHeader(comp.Header); !filled {
			// The DPU could not fill the bucket; data came back inline.
			if req.po < len(comp.Data) {
				copy(req.dst, comp.Data[req.po:])
			}
			continue
		}
		// Installed (or already there): read it from host memory. A page
		// evicted again before this probe is simply absent, and goes round
		// for another fill.
		if !c.cacheHost.LookupInto(p, ino, req.lpn, req.po, req.dst) {
			queue = append(queue, ms)
		}
	}
	return nil
}
