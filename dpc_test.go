package dpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpc/internal/sim"
)

func kvfsSystem(t *testing.T, cachePages int) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.Model.HostMemMB = 192
	opts.Model.DPUMemMB = 8
	opts.CachePages = cachePages
	return New(opts)
}

func dfsSystem(t *testing.T, cachePages int) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.Model.HostMemMB = 192
	opts.Model.DPUMemMB = 8
	opts.EnableKVFS = false
	opts.EnableDFS = true
	opts.CachePages = cachePages
	return New(opts)
}

func TestKVFSEndToEndDirect(t *testing.T) {
	sys := kvfsSystem(t, 0)
	cl := sys.KVFSClient()
	payload := make([]byte, 32768)
	rand.New(rand.NewSource(1)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/data.bin")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		got, err := f.Read(p, 0, 0, len(payload), true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("Read mismatch (err=%v, got %d bytes)", err, len(got))
		}
	})
	sys.Run()
	sys.Shutdown()
}

func TestKVFSNamespaceOps(t *testing.T) {
	sys := kvfsSystem(t, 0)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		if err := cl.Mkdir(p, 0, "/images"); err != nil {
			t.Errorf("Mkdir: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.Create(p, 0, fmt.Sprintf("/images/img%d", i)); err != nil {
				t.Errorf("Create img%d: %v", i, err)
			}
		}
		ents, err := cl.Readdir(p, 0, "/images")
		if err != nil || len(ents) != 3 {
			t.Errorf("Readdir = %d entries, %v", len(ents), err)
		}
		if err := cl.Rename(p, 0, "/images/img0", "/images/renamed"); err != nil {
			t.Errorf("Rename: %v", err)
		}
		if _, err := cl.Open(p, 0, "/images/img0"); err != ErrNotFound {
			t.Errorf("Open old name = %v", err)
		}
		st, err := cl.StatPath(p, 0, "/images/renamed")
		if err != nil || st.Ino == 0 {
			t.Errorf("StatPath = %+v, %v", st, err)
		}
		if err := cl.Rmdir(p, 0, "/images"); err != ErrNotEmpty {
			t.Errorf("Rmdir non-empty = %v", err)
		}
		if err := cl.Unlink(p, 0, "/images/renamed"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if err := cl.Unlink(p, 0, "/images/img1"); err != nil {
			t.Errorf("Unlink img1: %v", err)
		}
		if err := cl.Unlink(p, 0, "/images/img2"); err != nil {
			t.Errorf("Unlink img2: %v", err)
		}
		if err := cl.Rmdir(p, 0, "/images"); err != nil {
			t.Errorf("Rmdir: %v", err)
		}
	})
	sys.Run()
	sys.Shutdown()
}

func TestHybridCacheHitAvoidsPCIe(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	payload := make([]byte, 8192)
	rand.New(rand.NewSource(2)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/hot")
		f.Write(p, 0, 0, payload, true)
		// First buffered read: miss, DPU fills the cache.
		got, err := f.Read(p, 0, 0, 8192, false)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("first read mismatch: %v", err)
			return
		}
		// Second read must hit host memory: zero PCIe DMAs.
		sys.M.PCIe.Mark()
		got, err = f.Read(p, 0, 0, 8192, false)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("second read mismatch: %v", err)
			return
		}
		if d := sys.M.PCIe.DMAs.Delta(); d != 0 {
			t.Errorf("cache hit performed %d DMAs", d)
		}
		if d := sys.M.PCIe.MMIOs.Delta(); d != 0 {
			t.Errorf("cache hit performed %d MMIOs", d)
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
	hits, _ := cl.CacheStats()
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestBufferedWriteFlushedToBackend(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	payload := bytes.Repeat([]byte{0xAD}, 8192)
	var ino uint64
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/wb")
		ino = f.Ino
		// Preallocate so the page exists, then write buffered.
		f.Write(p, 0, 0, make([]byte, 8192), true)
		if err := f.Write(p, 0, 0, payload, false); err != nil {
			t.Errorf("buffered write: %v", err)
			return
		}
		// Read back through the cache immediately.
		got, err := f.Read(p, 0, 0, 8192, false)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("read after buffered write mismatch: %v", err)
		}
	})
	// Let the flush daemon drain the dirty page.
	sys.RunFor(100 * time.Millisecond)
	// Verify the bytes landed in the disaggregated KV store.
	var stored []byte
	sys.Go(func(p *sim.Proc) {
		data, err := sys.KVFS.Read(p, ino, 0, 8192)
		if err != nil {
			t.Errorf("backend read: %v", err)
			return
		}
		stored = data
	})
	sys.RunFor(10 * time.Millisecond)
	sys.Shutdown()
	if !bytes.Equal(stored, payload) {
		t.Fatal("flushed data does not match buffered write")
	}
}

func TestBufferedWriteFasterThanDirect(t *testing.T) {
	sys := kvfsSystem(t, 2048)
	cl := sys.KVFSClient()
	var directLat, cachedLat sim.Time
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/speed")
		f.Write(p, 0, 0, make([]byte, 64*8192), true)
		start := p.Now()
		for i := 0; i < 16; i++ {
			f.Write(p, 0, uint64(i)*8192, make([]byte, 8192), true)
		}
		directLat = p.Now() - start
		start = p.Now()
		for i := 0; i < 16; i++ {
			f.Write(p, 0, uint64(i)*8192, make([]byte, 8192), false)
		}
		cachedLat = p.Now() - start
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
	if cachedLat*3 >= directLat {
		t.Fatalf("buffered writes not faster: direct=%v cached=%v", directLat, cachedLat)
	}
}

func TestPrefetchBoostsSequentialRead(t *testing.T) {
	sys := kvfsSystem(t, 4096)
	cl := sys.KVFSClient()
	const pages = 64
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/seq")
		f.Write(p, 0, 0, make([]byte, pages*8192), true)
		for i := 0; i < pages; i++ {
			if _, err := f.Read(p, 0, uint64(i)*8192, 8192, false); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
	hits, misses := cl.CacheStats()
	if hits < int64(pages)/2 {
		t.Fatalf("prefetch ineffective: hits=%d misses=%d", hits, misses)
	}
}

func TestDFSEndToEnd(t *testing.T) {
	sys := dfsSystem(t, 0)
	cl := sys.DFSClient()
	payload := make([]byte, 16384)
	rand.New(rand.NewSource(3)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/vol/file")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		sent := sys.M.Net.BytesSent.Total()
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		// The data is erasure-coded across the data servers: the write put
		// k+m shards of k-th size on the fabric, (k+m)/k times the payload.
		cfg := sys.DFSBackend.Config()
		if got, want := sys.M.Net.BytesSent.Total()-sent, int64(len(payload)*(cfg.ECData+cfg.ECParity)/cfg.ECData); got < want {
			t.Errorf("write sent %d fabric bytes, want >= %d", got, want)
		}
		got, err := f.Read(p, 0, 0, len(payload), true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("Read mismatch: %v", err)
		}
		f2, err := cl.Open(p, 0, "/vol/file")
		if err != nil || f2.Ino != f.Ino {
			t.Errorf("Open = %+v, %v", f2, err)
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
}

func TestDFSWritesOffloadedFromHostCPU(t *testing.T) {
	// The host must spend far less CPU per op through DPC than the
	// equivalent host-side optimized client would (EC runs on the DPU).
	sys := dfsSystem(t, 0)
	cl := sys.DFSClient()
	const ops = 50
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/cpu")
		f.Write(p, 0, 0, make([]byte, 8192), true)
		sys.M.HostCPU.Mark()
		sys.M.DPUCPU.Mark()
		for i := 0; i < ops; i++ {
			f.Write(p, 0, 0, make([]byte, 8192), true)
		}
	})
	sys.RunFor(time.Second)
	hostBusy := sys.M.HostCPU.CoresUsed()
	dpuBusy := sys.M.DPUCPU.CoresUsed()
	sys.Shutdown()
	if hostBusy >= dpuBusy {
		t.Fatalf("host busier than DPU: host=%.4f dpu=%.4f cores", hostBusy, dpuBusy)
	}
}

func TestConcurrentClientsIntegrity(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	const threads = 16
	okCount := 0
	for th := 0; th < threads; th++ {
		th := th
		sys.Go(func(p *sim.Proc) {
			path := fmt.Sprintf("/t%d", th)
			f, err := cl.Create(p, th, path)
			if err != nil {
				t.Errorf("create %s: %v", path, err)
				return
			}
			want := bytes.Repeat([]byte{byte(th + 1)}, 8192)
			for i := 0; i < 5; i++ {
				if err := f.Write(p, th, uint64(i)*8192, want, true); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
			for i := 0; i < 5; i++ {
				got, err := f.Read(p, th, uint64(i)*8192, 8192, i%2 == 0)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("thread %d read %d mismatch: %v", th, i, err)
					return
				}
			}
			okCount++
		})
	}
	sys.RunFor(time.Second)
	sys.Shutdown()
	if okCount != threads {
		t.Fatalf("okCount = %d, want %d", okCount, threads)
	}
}

func TestUnalignedIOFallsBackToDirect(t *testing.T) {
	sys := kvfsSystem(t, 1024)
	cl := sys.KVFSClient()
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/unaligned")
		odd := []byte("an odd-sized unaligned payload")
		if err := f.Write(p, 0, 3, odd, false); err != nil {
			t.Errorf("unaligned write: %v", err)
			return
		}
		got, err := f.Read(p, 0, 3, len(odd), false)
		if err != nil || !bytes.Equal(got, odd) {
			t.Errorf("unaligned read = %q, %v", got, err)
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
}
