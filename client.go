package dpc

import (
	"errors"
	"fmt"
	"math"
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
// every client (and thus every File handle) of that service, and the only
// EOF the host keeps (File.Size reads it): a per-handle copy would let a
// handle opened before another handle extended the file clamp buffered
// reads to its stale size and silently truncate data already in the cache.
// The table is updated at every point a client learns an authoritative size
// — create, lookup, setattr, extending writes, truncate — and every handle
// comes from a create or a lookup, so it has an entry. Entries for unlinked
// files linger, which is harmless: both backends allocate inode numbers
// monotonically, so a dead entry can never be mistaken for a new file.
type sizeTable struct {
	m map[uint64]uint64
}

func newSizeTable() *sizeTable { return &sizeTable{m: map[uint64]uint64{}} }

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
	// ErrNameTooLong is returned for a path no command can carry: longer
	// than the request header's 16-bit length field, or, with a rename's
	// second path, longer than one command's payload.
	ErrNameTooLong = errors.New("dpc: path too long")
)

// opTimer is a client op's span and latency sample (h nil: none), a value so
// that timing an op allocates nothing.
type opTimer struct {
	s     obs.Span
	h     *obs.Histogram
	start sim.Time
}

func (c *Client) begin(p *sim.Proc, name string, h *obs.Histogram) opTimer {
	return opTimer{s: c.o.Begin(p, name), h: h, start: p.Now()}
}

// end records the latency, pins the span for the telemetry flight recorder
// when err is a fault-class outcome — an I/O error or a retry-budget timeout,
// not a namespace answer such as not-found — and ends the span.
func (t opTimer) end(p *sim.Proc, err error) {
	t.h.Observe(time.Duration(p.Now() - t.start))
	if err != nil && (errors.Is(err, ErrIO) || errors.Is(err, ErrTimeout)) {
		t.s.Pin()
	}
	t.s.End(p)
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

	// sizes is the service-wide EOF table shared with every other client of
	// the same service (see sizeTable); pool recycles hot-path scratch
	// buffers (read-modify-write bases) so steady-state data ops allocate
	// nothing.
	sizes *sizeTable
	pool  *bufpool.Pool

	// Tenant scoping. A tenant-scoped client confines every submission to
	// its tenant's queue group [qbase, qbase+qcount): caller qids are folded
	// into the group, so existing thread-index conventions work unchanged
	// over a shared driver. An unscoped client (qcount 0) passes qids
	// through untouched.
	qbase  int
	qcount int

	// hdrBuf is where every request header is marshalled (header): Submit
	// and Enqueue copy it into the command before they first park, so one
	// buffer serves all of the client's processes. statusSink receives the
	// one-byte status header of the commands whose callers never read it
	// (direct reads, control commands), so its copy allocates nothing.
	hdrBuf     [dispatch.ReqHeaderSize]byte
	statusSink [1]byte

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
func newClient(sys *System, bit uint8, host *cache.Host, sizes *sizeTable, tenant int) *Client {
	c := &Client{sys: sys, dispatchBit: bit, cacheHost: host, sizes: sizes, pool: sys.pool}
	if sys.Driver.Tenants() == 0 {
		tenant = -1
	}
	if tenant >= 0 {
		c.qbase, c.qcount = sys.Driver.TenantQueues(tenant)
	}
	if o := sys.M.Obs; o.Enabled() {
		c.o = o
		if tenant >= 0 {
			c.hWrite = o.Histogram(fmt.Sprintf("t%d.client.write.latency", tenant))
			c.hRead = o.Histogram(fmt.Sprintf("t%d.client.read.latency", tenant))
			c.hMeta = o.Histogram(fmt.Sprintf("t%d.client.meta.latency", tenant))
			c.hSync = o.Histogram(fmt.Sprintf("t%d.client.sync.latency", tenant))
		} else {
			c.hWrite = o.Histogram("client.write.latency")
			c.hRead = o.Histogram("client.read.latency")
			c.hMeta = o.Histogram("client.meta.latency")
			c.hSync = o.Histogram("client.sync.latency")
		}
	}
	return c
}

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
	c   *Client
	Ino uint64
}

// submit sends one nvme-fs command for this service.
func (c *Client) submit(p *sim.Proc, qid int, sub nvmefs.Submission) nvmefs.Completion {
	sub.Dispatch = c.dispatchBit
	return c.sys.Driver.Submit(p, c.mapQ(qid), sub)
}

// enqueue stages one command for this service on queue qid; ring publishes
// every command staged on that queue with one doorbell.
func (c *Client) enqueue(p *sim.Proc, qid int, sub nvmefs.Submission) *nvmefs.Pending {
	sub.Dispatch = c.dispatchBit
	return c.sys.Driver.Enqueue(p, c.mapQ(qid), sub)
}

func (c *Client) ring(p *sim.Proc, qid int) { c.sys.Driver.Ring(p, c.mapQ(qid)) }

// header marshals h into the client's request-header buffer for the submit
// or enqueue that follows it, with no park in between.
func (c *Client) header(h dispatch.ReqHeader) []byte { return h.Put(c.hdrBuf[:]) }

// command runs a header-only control command (a one-byte response header,
// no payload either way) and maps its status.
func (c *Client) command(p *sim.Proc, qid int, op uint32, hdr dispatch.ReqHeader) error {
	comp := c.submit(p, qid, nvmefs.Submission{FileOp: op, Header: c.header(hdr), RHLen: 1, HeaderInto: c.statusSink[:]})
	return statusErr(comp.Status)
}

// metaOp runs a path-based namespace operation and decodes the attribute.
func (c *Client) metaOp(p *sim.Proc, qid int, op uint32, path, path2 string) (a kvfs.Attr, err error) {
	t := c.begin(p, clientSpanName(op), c.hMeta)
	defer func() { t.end(p, err) }()
	if err := c.checkPaths(path, path2); err != nil {
		return kvfs.Attr{}, err
	}
	hdr := dispatch.ReqHeader{PathLen: uint16(len(path)), Aux: uint16(len(path2))}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp:  op,
		Header:  c.header(hdr),
		Payload: append([]byte(path), path2...),
		RHLen:   kvfs.AttrSize,
	})
	if err := statusErr(comp.Status); err != nil {
		return kvfs.Attr{}, err
	}
	if len(comp.Header) == kvfs.AttrSize {
		return kvfs.UnmarshalAttr(comp.Header)
	}
	return kvfs.Attr{}, nil
}

// checkPaths refuses paths a namespace command cannot carry (ErrNameTooLong).
func (c *Client) checkPaths(path, path2 string) error {
	if len(path) > math.MaxUint16 || len(path2) > math.MaxUint16 || len(path)+len(path2) > c.sys.Driver.MaxIO() {
		return ErrNameTooLong
	}
	return nil
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
	return &File{c: c, Ino: a.Ino}, nil
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

// Rename moves a dentry: a file, or a directory with its subtree. Moving a
// directory into its own subtree is refused.
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
func (c *Client) Readdir(p *sim.Proc, qid int, path string) (out []DirEntry, err error) {
	t := c.begin(p, "client.readdir", c.hMeta)
	defer func() { t.end(p, err) }()
	if err := c.checkPaths(path, ""); err != nil {
		return nil, err
	}
	hdr := dispatch.ReqHeader{PathLen: uint16(len(path))}
	comp := c.submit(p, qid, nvmefs.Submission{
		FileOp:  nvme.FileOpReaddir,
		Header:  c.header(hdr),
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
	out = make([]DirEntry, len(names))
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
	t := f.c.begin(p, "client.fsync", f.c.hSync)
	err := f.c.command(p, qid, nvme.FileOpFlush, dispatch.ReqHeader{Ino: f.Ino, Flags: flags})
	t.end(p, err)
	return err
}

// Truncate cuts the file to zero length and drops every cached page of it:
// stale pages left in the hybrid cache would resurrect dead data through
// read-modify-write or the flush daemon. The invalidation runs BEFORE the
// backend truncate: InvalidateIno waits out any flusher holding a page of
// this inode, so no in-flight flush (whose EOF clamp read the pre-truncate
// size) can land after the truncate and re-extend the file. It runs again
// AFTER it: a DPU fill that read a page before the truncate and compared its
// page's landed-write count before the truncate noted itself installs the
// dead page, and only this second pass (which waits out a pending claim)
// drops it.
func (f *File) Truncate(p *sim.Proc, qid int) (err error) {
	t := f.c.begin(p, "client.truncate", nil)
	defer func() { t.end(p, err) }()
	if f.c.cacheHost != nil {
		f.c.cacheHost.InvalidateIno(p, f.Ino)
	}
	err = f.c.command(p, qid, nvme.FileOpTruncate, dispatch.ReqHeader{Ino: f.Ino})
	if f.c.cacheHost != nil {
		f.c.cacheHost.InvalidateIno(p, f.Ino)
	}
	if err != nil {
		return err
	}
	f.c.sizes.set(f.Ino, 0)
	return nil
}

// Sync flushes the service's dirty cache pages to the backend.
func (c *Client) Sync(p *sim.Proc, qid int) error {
	t := c.begin(p, "client.sync", c.hSync)
	err := c.command(p, qid, nvme.FileOpBarrier, dispatch.ReqHeader{})
	t.end(p, err)
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
//
// A zero-length write moves no bytes and returns at once: it must not pay
// the direct path's pre-sync. A degraded cache (persistent backend flush
// failure) routes writes straight to the backend — buffering them would only
// grow the pool of dirty pages that cannot be written back.
func (f *File) Write(p *sim.Proc, qid int, off uint64, data []byte, direct bool) (err error) {
	t := f.c.begin(p, "client.write", f.c.hWrite)
	defer func() { t.end(p, err) }()
	switch {
	case len(data) == 0:
		return nil
	case direct || f.c.cacheHost == nil || f.c.cacheHost.Degraded():
		return f.writeDirect(p, qid, off, data)
	}
	return f.writeBuffered(p, qid, off, data)
}

// setSize publishes a new EOF to the backend (a size-only setattr).
func (c *Client) setSize(p *sim.Proc, qid int, ino, size uint64) error {
	if err := c.command(p, qid, nvme.FileOpSetattr, dispatch.ReqHeader{Ino: ino, Off: size}); err != nil {
		return err
	}
	c.sizes.setMax(ino, size)
	return nil
}

// Size is the file's EOF: the service-wide size table, which sees extends
// and truncates made through every handle.
func (f *File) Size() uint64 { return f.c.sizes.m[f.Ino] }

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
// returned count, or after an error, are unspecified. A zero-length read,
// like a zero-length write, returns at once.
func (f *File) ReadInto(p *sim.Proc, qid int, off uint64, dst []byte, direct bool) (got int, err error) {
	t := f.c.begin(p, "client.read", f.c.hRead)
	defer func() { t.end(p, err) }()
	switch {
	case len(dst) == 0:
		return 0, nil
	case direct || f.c.cacheHost == nil:
		return f.direct(p, qid, off, dst, false)
	}
	return f.readBuffered(p, qid, off, dst)
}
