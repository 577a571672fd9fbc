package dpc

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/sim"
)

// TestReadDirectEOFMidChunk: a pipelined direct read whose window straddles
// EOF must return exactly the file's bytes — the first short chunk marks the
// end, later in-flight chunks are discarded.
func TestReadDirectEOFMidChunk(t *testing.T) {
	sys := kvfsSystem(t, 0)
	cl := sys.KVFSClient()
	// 200000 bytes: three full 64 KiB MaxIO chunks plus a 3392-byte tail,
	// so a 1 MiB read has many all-zero chunks in flight past EOF.
	payload := make([]byte, 200000)
	rand.New(rand.NewSource(11)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/eof.bin")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got, err := f.Read(p, 0, 0, 1<<20, true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("full over-read: err=%v, got %d bytes, want %d", err, len(got), len(payload))
		}
		// Unaligned offset, read crossing EOF mid-chunk.
		got, err = f.Read(p, 0, 131072+777, 1<<20, true)
		if err != nil || !bytes.Equal(got, payload[131072+777:]) {
			t.Errorf("tail over-read: err=%v, got %d bytes, want %d", err, len(got), len(payload)-131072-777)
		}
		// Entirely past EOF.
		got, err = f.Read(p, 0, 1<<21, 4096, true)
		if err != nil || len(got) != 0 {
			t.Errorf("past-EOF read: err=%v, got %d bytes, want 0", err, len(got))
		}
	})
	sys.Run()
	sys.Shutdown()
}

// TestPipelinedCachedReadCorrect: a cold multi-page buffered read issues its
// miss fills concurrently across queues and must still assemble the exact
// bytes; the following pass must hit host memory.
func TestPipelinedCachedReadCorrect(t *testing.T) {
	sys := kvfsSystem(t, 2048)
	cl := sys.KVFSClient()
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(12)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/cold.bin")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		// Direct write: nothing lands in the cache, so the buffered read
		// below misses on every page.
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		hits0, misses0 := cl.CacheStats()
		got, err := f.Read(p, 0, 0, len(payload), false)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("cold read: err=%v, %d bytes", err, len(got))
			return
		}
		_, misses1 := cl.CacheStats()
		if misses1 == misses0 {
			t.Error("cold read produced no cache misses")
		}
		got, err = f.Read(p, 0, 0, len(payload), false)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("warm read: err=%v, %d bytes", err, len(got))
			return
		}
		hits2, _ := cl.CacheStats()
		if hits2 == hits0 {
			t.Error("warm read produced no cache hits")
		}
		// Unaligned window over cached pages.
		got, err = f.Read(p, 0, 8192+100, 3*8192, false)
		if err != nil || !bytes.Equal(got, payload[8192+100:8192+100+3*8192]) {
			t.Errorf("unaligned cached read: err=%v, %d bytes", err, len(got))
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
}

// TestPipelinedRMWHeadTail: an unaligned buffered write fetches the base of
// its partial head and tail pages in one pipelined batch; the merged result
// must match a byte-for-byte oracle, both through the cache and after fsync
// from the backend.
func TestPipelinedRMWHeadTail(t *testing.T) {
	sys := kvfsSystem(t, 2048)
	cl := sys.KVFSClient()
	base := make([]byte, 5*8192)
	rand.New(rand.NewSource(13)).Read(base)
	overlay := make([]byte, 3*8192) // spans parts of 4 pages: both ends partial
	rand.New(rand.NewSource(14)).Read(overlay)
	const off = 8192/2 + 33
	oracle := append([]byte(nil), base...)
	copy(oracle[off:], overlay)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/rmw.bin")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, base, true); err != nil {
			t.Errorf("base write: %v", err)
			return
		}
		if err := f.Write(p, 0, off, overlay, false); err != nil {
			t.Errorf("overlay write: %v", err)
			return
		}
		got, err := f.Read(p, 0, 0, len(oracle), false)
		if err != nil || !bytes.Equal(got, oracle) {
			t.Errorf("buffered read-back mismatch (err=%v)", err)
			return
		}
		if err := f.Sync(p, 0); err != nil {
			t.Errorf("Sync: %v", err)
			return
		}
		got, err = f.Read(p, 0, 0, len(oracle), true)
		if err != nil || !bytes.Equal(got, oracle) {
			t.Errorf("direct read-back after fsync mismatch (err=%v)", err)
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
}

// runPipelinedObserved drives every pipelined path (multi-chunk direct
// write/read, cold multi-page buffered read, unaligned RMW write, fsync)
// under a fully attached Obs and exports the trace and snapshot bytes.
func runPipelinedObserved(t *testing.T) (trace, snap []byte, o *obs.Obs) {
	t.Helper()
	opts := DefaultOptions()
	opts.Model.Obs = obs.New()
	sys := New(opts)
	cl := sys.KVFSClient()
	payload := make([]byte, 512*1024)
	rand.New(rand.NewSource(21)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/pipe.dat")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("direct write: %v", err)
			return
		}
		if _, err := f.Read(p, 0, 0, len(payload), true); err != nil {
			t.Errorf("direct read: %v", err)
			return
		}
		if _, err := f.Read(p, 0, 0, len(payload), false); err != nil {
			t.Errorf("buffered read: %v", err)
			return
		}
		if err := f.Write(p, 0, 1000, payload[:100000], false); err != nil {
			t.Errorf("RMW write: %v", err)
			return
		}
		if err := f.Sync(p, 0); err != nil {
			t.Errorf("Sync: %v", err)
		}
	})
	sys.RunFor(200 * time.Millisecond)
	now := sys.Now()
	trace = sys.Obs().Tracer().Perfetto(now)
	snap, err := sys.Obs().SnapshotJSON(now)
	if err != nil {
		t.Fatalf("SnapshotJSON: %v", err)
	}
	sys.Shutdown()
	return trace, snap, sys.Obs()
}

// TestPipelinedDeterminism: with the submission pipeline fully engaged,
// identical seeds still export byte-identical metrics snapshots and Perfetto
// traces, and the new driver instrumentation shows coalesced doorbells and a
// multi-command in-flight window.
func TestPipelinedDeterminism(t *testing.T) {
	trace1, snap1, o := runPipelinedObserved(t)
	trace2, snap2, _ := runPipelinedObserved(t)
	if !bytes.Equal(trace1, trace2) {
		t.Error("identical pipelined runs produced different Perfetto JSON")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("identical pipelined runs produced different metrics snapshots")
	}
	reg := o.Registry()
	doorbells := reg.CounterValue("nvmefs.driver.doorbells")
	coalesced := reg.CounterValue("nvmefs.driver.doorbells_coalesced")
	if doorbells == 0 {
		t.Error("nvmefs.driver.doorbells is zero after a pipelined workload")
	}
	if coalesced == 0 {
		t.Error("nvmefs.driver.doorbells_coalesced is zero: no burst shared a doorbell")
	}
	if peak := reg.Gauge("nvmefs.driver.inflight_peak").Value(); peak < 2 {
		t.Errorf("inflight_peak = %v, want >= 2 (pipeline never overlapped commands)", peak)
	}
}
