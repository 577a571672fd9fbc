package dpc

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dpc/internal/kvfs"
	"dpc/internal/sim"
)

func xformSystem(t *testing.T, compression, dif bool) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.CachePages = 0
	opts.Compression = compression
	opts.DIF = dif
	return New(opts)
}

func TestCompressionRoundTripEndToEnd(t *testing.T) {
	sys := xformSystem(t, true, true)
	cl := sys.KVFSClient()
	// Compressible payload (text-like) plus an incompressible tail.
	payload := append(bytes.Repeat([]byte("log line: request served in 42us\n"), 900),
		make([]byte, 8192)...)
	rand.New(rand.NewSource(1)).Read(payload[len(payload)-8192:])
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/logs")
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
			t.Errorf("round trip with compression+DIF failed: %v", err)
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
}

func TestCompressionShrinksStoredBytesAndTraffic(t *testing.T) {
	measure := func(compress bool) (stored int, netBytes int64) {
		sys := xformSystem(t, compress, false)
		cl := sys.KVFSClient()
		payload := bytes.Repeat([]byte("container-image-layer-bytes "), 2400) // ~66 KB text
		sys.Go(func(p *sim.Proc) {
			f, _ := cl.Create(p, 0, "/layer")
			sys.M.Net.BytesSent.Mark()
			if err := f.Write(p, 0, 0, payload, true); err != nil {
				t.Errorf("Write: %v", err)
			}
		})
		sys.RunFor(time.Second)
		netBytes = sys.M.Net.BytesSent.Delta()
		for i := 0; i < sys.KVCluster.Shards(); i++ {
			st := sys.KVCluster.StoreOf(i)
			for _, kvp := range st.Scan("b", 0) {
				stored += len(kvp.Val)
			}
		}
		sys.Shutdown()
		return stored, netBytes
	}
	rawStored, rawNet := measure(false)
	compStored, compNet := measure(true)
	if compStored*2 >= rawStored {
		t.Errorf("compression stored %d vs raw %d: not even 2x smaller", compStored, rawStored)
	}
	if compNet >= rawNet {
		t.Errorf("compression network bytes %d not below raw %d", compNet, rawNet)
	}
}

func TestDIFDetectsBackendCorruption(t *testing.T) {
	sys := xformSystem(t, false, true)
	cl := sys.KVFSClient()
	var ino uint64
	payload := make([]byte, 3*kvfs.BlockSize)
	rand.New(rand.NewSource(2)).Read(payload)
	sys.Go(func(p *sim.Proc) {
		f, _ := cl.Create(p, 0, "/protected")
		ino = f.Ino
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	sys.RunFor(time.Second)

	// Corrupt one stored block directly in the KV store (a bit flip on the
	// wire or on flash).
	key := kvfs.BigKey(ino, 1)
	sh := sys.KVCluster.ShardFor(key)
	val, ok := sys.KVCluster.StoreOf(sh).Get([]byte(key))
	if !ok {
		t.Fatal("stored block not found")
	}
	val = append([]byte(nil), val...)
	val[100] ^= 0x01
	sys.KVCluster.StoreOf(sh).Put([]byte(key), val)

	sys.Go(func(p *sim.Proc) {
		f, err := cl.Open(p, 0, "/protected")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		// The corrupted block must surface as an I/O error, not silent
		// bad data.
		if _, err := f.Read(p, 0, kvfs.BlockSize, kvfs.BlockSize, true); err == nil {
			t.Error("read of corrupted block returned no error")
		}
		// Untouched blocks still read fine.
		got, err := f.Read(p, 0, 0, kvfs.BlockSize, true)
		if err != nil || !bytes.Equal(got, payload[:kvfs.BlockSize]) {
			t.Errorf("clean block read failed: %v", err)
		}
	})
	sys.RunFor(time.Second)
	sys.Shutdown()
}

func TestTransformChargesDPUNotHost(t *testing.T) {
	run := func(compress bool) (host, dpu float64) {
		sys := xformSystem(t, compress, compress)
		cl := sys.KVFSClient()
		payload := bytes.Repeat([]byte("compressible "), 5000)
		sys.Go(func(p *sim.Proc) {
			f, _ := cl.Create(p, 0, "/f")
			sys.M.HostCPU.Mark()
			sys.M.DPUCPU.Mark()
			for i := 0; i < 20; i++ {
				f.Write(p, 0, 0, payload, true)
			}
		})
		sys.RunFor(time.Second)
		host, dpu = sys.M.HostCPU.CoresUsed(), sys.M.DPUCPU.CoresUsed()
		sys.Shutdown()
		return
	}
	hostOff, dpuOff := run(false)
	hostOn, dpuOn := run(true)
	if dpuOn <= dpuOff {
		t.Errorf("transforms did not cost DPU cycles: %.3f vs %.3f", dpuOn, dpuOff)
	}
	// Host cost must not grow materially: the work is offloaded.
	if hostOn > hostOff*1.5 {
		t.Errorf("transforms leaked host CPU: %.3f vs %.3f", hostOn, hostOff)
	}
}
