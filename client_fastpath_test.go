package dpc

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Satellite S1: a steady-state buffered read-modify-write must not allocate
// scratch — the RMW page bases come from the client buffer pool and the page
// fetch bookkeeping lives on the stack. Guards the former per-op
// `make([]byte, ps)` in File.write.
func TestBufferedWriteRMWZeroScratchAllocs(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		// Stop the flush daemon before it ever wakes: a mid-measure flush
		// would submit write-back commands and charge its allocations to us.
		sys.StopDaemons()
		f, err := cl.Create(p, 0, "/rmw")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		data := make([]byte, 6000)
		for i := range data {
			data[i] = byte(i * 3)
		}
		// Warm up: publish the EOF, fault in the cache pages, and prime the
		// buffer pool and engine heaps so the measured runs are steady-state.
		for i := 0; i < 8; i++ {
			if err := f.Write(p, 0, 1000, data, false); err != nil {
				t.Errorf("warmup write: %v", err)
				return
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := f.Write(p, 0, 1000, data, false); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("buffered RMW write allocs/op = %v, want 0", allocs)
		}
	})
	sys.Run()
	sys.Shutdown()
}

// Steady-state cached buffered reads through ReadInto are also
// allocation-free: hits copy via LookupInto and the request array is
// stack-sized.
func TestBufferedReadIntoZeroAllocs(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		sys.StopDaemons()
		f, err := cl.Create(p, 0, "/ri")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		data := make([]byte, 8192)
		for i := range data {
			data[i] = byte(i * 5)
		}
		if err := f.Write(p, 0, 0, data, false); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		dst := make([]byte, 6000)
		for i := 0; i < 4; i++ {
			if _, err := f.ReadInto(p, 0, 1000, dst, false); err != nil {
				t.Errorf("warmup read: %v", err)
				return
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			n, err := f.ReadInto(p, 0, 1000, dst, false)
			if err != nil || n != len(dst) {
				t.Errorf("ReadInto = %d, %v", n, err)
			}
		})
		if allocs != 0 {
			t.Errorf("buffered cached ReadInto allocs/op = %v, want 0", allocs)
		}
		if !bytes.Equal(dst, data[1000:7000]) {
			t.Errorf("ReadInto data mismatch")
		}
	})
	sys.Run()
	sys.Shutdown()
}

// TestKVFSDirect8KPairBytes: one 8 KiB direct write plus one 8 KiB direct
// read through the whole stack (client, nvme-fs, dispatch, KVFS, KV shard)
// allocates under 4 KiB in steady state: no payload-sized buffer is left
// anywhere — the write overwrites the store's block in place and the read
// fills the transport's response buffer from the shard.
func TestKVFSDirect8KPairBytes(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		sys.StopDaemons()
		f, err := cl.Create(p, 0, "/pair")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		data, dst := bytes.Repeat([]byte{0xC3}, 4*8192), make([]byte, 8192)
		if err := f.Write(p, 0, 0, data, true); err != nil {
			t.Errorf("setup write: %v", err)
			return
		}
		pair := func() {
			if err := f.Write(p, 0, 8192, data[:8192], true); err != nil {
				t.Errorf("write: %v", err)
			}
			if n, err := f.ReadInto(p, 0, 8192, dst, true); err != nil || n != 8192 {
				t.Errorf("ReadInto = %d, %v", n, err)
			}
		}
		for i := 0; i < 8; i++ {
			pair()
		}
		const pairs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			pair()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / pairs; b >= 4096 {
			t.Errorf("8K direct write+read: %d bytes allocated per pair, want < 4096", b)
		}
		if !bytes.Equal(dst, data[:8192]) {
			t.Error("read-back mismatch")
		}
	})
	sys.Run()
	sys.Shutdown()
}

// directReadSystem builds a cacheless system with 4 KiB chunks, where one
// persistently-dropped completion turns into ErrTimeout after nvme-fs's nine
// attempts (the first plus eight retries).
func directReadSystem(t *testing.T, rules []fault.Rule) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.Model.HostMemMB = 192
	opts.Model.DPUMemMB = 8
	opts.CachePages = 0
	opts.NvmeFS.MaxIO = 4096
	opts.Faults = rules
	return New(opts)
}

// Satellite S2, EOF side: a fault on a chunk issued past the first short
// chunk (a "straggler") must not fail the read — everything past the
// observed EOF is drained and discarded, payloads and errors alike.
//
// Completion-site numbering: create is event 1 and the 10000-byte direct
// write is 2-4. The read's four chunks complete in handler-latency order,
// not submission order — the straggler past EOF reads nothing and posts its
// CQE (event 7) before the short chunk's 1808-byte read (event 8). Dropping
// event 7 nine times (initial + eight retries) exhausts the straggler's
// budget and surfaces StatusTimeout — which the EOF rule discards.
func TestReadDirectStragglerErrorDiscardedAtEOF(t *testing.T) {
	sys := directReadSystem(t, []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 7, Count: 9},
	})
	cl := sys.KVFSClient()
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/straggler")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got, err := f.Read(p, 0, 0, 16384, true)
		if err != nil {
			t.Errorf("Read failed on a past-EOF straggler fault: %v", err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("Read = %d bytes, want %d intact", len(got), len(payload))
		}
	})
	sys.Run()
	sys.Shutdown()
	if sys.Driver.Timeouts != 9 {
		t.Fatalf("Timeouts = %d, want 9 (fault did not hit the straggler)", sys.Driver.Timeouts)
	}
}

// Satellite S2, error side: a failure on a chunk below EOF must surface, and
// the remaining in-flight chunks must still be drained — the driver stays
// usable for the next operation.
func TestReadDirectErrorBelowEOFDrainsAndReports(t *testing.T) {
	// Completions 5-40 dropped: all four read chunks exhaust their nine
	// attempts. The read must fail; the follow-up read (completions 41+)
	// must succeed, proving no slot or pending leaked.
	sys := directReadSystem(t, []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 5, Count: 36},
	})
	cl := sys.KVFSClient()
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/belowEOF")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		if _, err := f.Read(p, 0, 0, 16384, true); !errors.Is(err, ErrTimeout) {
			t.Errorf("Read below-EOF fault = %v, want ErrTimeout", err)
		}
		got, err := f.Read(p, 0, 0, 16384, true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("follow-up Read = %d bytes, err %v", len(got), err)
		}
	})
	sys.Run()
	sys.Shutdown()
	if sys.Driver.Timeouts != 36 {
		t.Fatalf("Timeouts = %d, want 36", sys.Driver.Timeouts)
	}
}

// Satellite S3: a handle opened before another handle extends the file must
// see the extension through buffered reads. The EOF comes from the
// service-wide size table, not the handle's stale Size snapshot.
func TestBufferedReadSeesOtherHandleExtend(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		a, err := cl.Create(p, 0, "/shared")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		part1 := make([]byte, 4096)
		part2 := make([]byte, 4096)
		for i := range part1 {
			part1[i] = byte(i)
			part2[i] = byte(i * 7)
		}
		if err := a.Write(p, 0, 0, part1, false); err != nil {
			t.Errorf("write part1: %v", err)
			return
		}
		// Open a second handle now: it snapshots Size = 4096.
		b, err := cl.Open(p, 0, "/shared")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if b.Size != 4096 {
			t.Errorf("second handle Size = %d, want 4096", b.Size)
		}
		// Extend through the first handle, buffered.
		if err := a.Write(p, 0, 4096, part2, false); err != nil {
			t.Errorf("write part2: %v", err)
			return
		}
		// The stale handle must read all 8192 bytes, not clamp to 4096.
		got, err := b.Read(p, 0, 0, 8192, false)
		if err != nil {
			t.Errorf("stale-handle read: %v", err)
			return
		}
		if len(got) != 8192 {
			t.Errorf("stale-handle read = %d bytes, want 8192 (clamped to stale EOF)", len(got))
			return
		}
		if !bytes.Equal(got[:4096], part1) || !bytes.Equal(got[4096:], part2) {
			t.Errorf("stale-handle read content mismatch")
		}
		// And a truncate through one handle clamps the other immediately.
		if err := a.Truncate(p, 0); err != nil {
			t.Errorf("Truncate: %v", err)
			return
		}
		if got, err := b.Read(p, 0, 0, 8192, false); err != nil || len(got) != 0 {
			t.Errorf("read after truncate = %d bytes, err %v; want empty", len(got), err)
		}
	})
	sys.StopDaemons()
	sys.Run()
	sys.Shutdown()
}

// Inline metrics must be registered only when the fast path is enabled:
// a disabled run's snapshot key set — and therefore its bytes — must be
// indistinguishable from a build without the inline path at all.
func TestInlineMetricsKeysOnlyWhenEnabled(t *testing.T) {
	run := func(inlineMax int) string {
		o := obs.New()
		opts := DefaultOptions()
		opts.Model.HostMemMB = 192
		opts.Model.DPUMemMB = 8
		opts.Model.Obs = o
		opts.CachePages = 0
		opts.NvmeFS.InlineMax = inlineMax
		sys := New(opts)
		cl := sys.KVFSClient()
		sys.Go(func(p *sim.Proc) {
			f, err := cl.Create(p, 0, "/m")
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			small := make([]byte, 200)
			if err := f.Write(p, 0, 0, small, true); err != nil {
				t.Errorf("Write: %v", err)
			}
			if _, err := f.Read(p, 0, 0, 200, true); err != nil {
				t.Errorf("Read: %v", err)
			}
		})
		sys.Run()
		js, err := o.SnapshotJSON(sys.Now())
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		sys.Shutdown()
		return string(js)
	}
	off, on := run(0), run(512)
	keys := []string{
		"nvmefs.driver.inline_writes", "nvmefs.driver.inline_reads",
		"nvmefs.driver.inline_bytes", "pcie.link.pios", "pcie.link.pio_bytes",
		"nvmefs.driver.inline_cutover",
	}
	if strings.Contains(on, "nvmefs.q0.inline_cutover") {
		t.Errorf("inline-enabled snapshot still has a per-queue cutover gauge")
	}
	for _, key := range keys {
		if strings.Contains(off, key) {
			t.Errorf("inline-disabled snapshot contains %q", key)
		}
		if !strings.Contains(on, key) {
			t.Errorf("inline-enabled snapshot missing %q", key)
		}
	}
}
