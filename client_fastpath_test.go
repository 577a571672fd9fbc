package dpc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

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
// fills the transport's response buffer from the shard. Counted, the pair
// allocates nothing at all: the client, nvme-fs (command records, workers,
// interrupts), the dispatcher and the KV path (a recycled call record that
// the fabric carries by pointer, and a block key built on the stack) each
// reuse what they hold.
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
		if a := testing.AllocsPerRun(100, pair); a != 0 {
			t.Errorf("8K direct write+read: %v allocs per pair, want 0", a)
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

// Satellite S3: a handle opened before another handle extends the file must
// see the extension through buffered reads. The EOF comes from the
// service-wide size table, the one EOF every handle's Size reads.
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
		// Open a second handle now: it sees Size 4096.
		b, err := cl.Open(p, 0, "/shared")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if b.Size() != 4096 {
			t.Errorf("second handle Size = %d, want 4096", b.Size())
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

// A buffered read that misses allocates nothing, end to end. Each read
// misses its pages (four 8 KiB pages are striped over four queues), and the
// DPU fills each with one backend read: the client's miss queue and window
// are rings on the stack, each miss's response header lands in a pooled
// buffer, the dispatcher writes the fill header into the transport's header
// buffer and the KV access recycles its call record. With the prefetcher
// on, a re-missed page extends no stream and starts no window, so the
// detector, which keeps its streams by value in a slice that stops growing,
// adds nothing either. A read that does start a window pays for the window
// fetch's process and range read, which this gate does not cover.
func TestBufferedReadMissZeroScratchAllocs(t *testing.T) {
	for _, c := range []struct {
		pages    int
		prefetch bool
	}{{4, false}, {1, false}, {1, true}} {
		t.Run(fmt.Sprintf("pages=%d/prefetch=%v", c.pages, c.prefetch), func(t *testing.T) { bufferedReadMissAllocs(t, c.pages, c.prefetch) })
	}
}

func bufferedReadMissAllocs(t *testing.T, pages int, prefetch bool) {
	opts := DefaultOptions()
	opts.CachePages = 1024
	opts.Ctl.PrefetchEnabled = prefetch
	sys := New(opts)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		sys.StopDaemons()
		f, err := cl.Create(p, 0, "/miss")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		data := bytes.Repeat([]byte{0x5A}, pages*8192)
		if err := f.Write(p, 0, 0, data, true); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		dst := make([]byte, len(data))
		miss := func() {
			cl.cacheHost.InvalidateIno(p, f.Ino)
			if n, err := f.ReadInto(p, 0, 0, dst, false); err != nil || n != len(dst) {
				t.Errorf("ReadInto = %d, %v", n, err)
			}
		}
		// Warm past maxStreamsPerIno misses, so that with the prefetcher on
		// every measured miss evicts a stream.
		for i := 0; i < 80; i++ {
			miss()
		}
		fills := sys.kvfsSvc.Ctl.Fills.Total()
		if a := testing.AllocsPerRun(50, miss); a != 0 {
			t.Errorf("buffered read missing %d pages: %v allocs, want 0", pages, a)
		}
		if n := sys.kvfsSvc.Ctl.Fills.Total() - fills; n != int64(pages)*51 {
			t.Errorf("%d fills in 51 reads of %d pages: the reads did not miss", n, pages)
		}
		if !bytes.Equal(dst, data) {
			t.Error("read-back mismatch")
		}
	})
	sys.Run()
	sys.Shutdown()
}
