package dpc

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/sim"
)

// TestFsyncFlushesOnlyThatFile exercises the per-file flush path: after a
// buffered write plus Sync, the data is durable in the backend even though
// the flush daemon has not run; other files' dirty pages stay dirty.
func TestFsyncFlushesOnlyThatFile(t *testing.T) {
	opts := DefaultOptions()
	opts.Ctl.FlushEnabled = false // no daemon: only fsync flushes
	sys := New(opts)
	cl := sys.KVFSClient()

	payloadA := bytes.Repeat([]byte{0xA1}, 8192)
	payloadB := bytes.Repeat([]byte{0xB2}, 8192)
	var inoA, inoB uint64
	sys.Go(func(p *sim.Proc) {
		fa, _ := cl.Create(p, 0, "/a")
		fb, _ := cl.Create(p, 0, "/b")
		inoA, inoB = fa.Ino, fb.Ino
		if err := fa.Write(p, 0, 0, payloadA, false); err != nil {
			t.Errorf("write a: %v", err)
			return
		}
		if err := fb.Write(p, 0, 0, payloadB, false); err != nil {
			t.Errorf("write b: %v", err)
			return
		}
		if err := fa.Sync(p, 0); err != nil {
			t.Errorf("sync a: %v", err)
		}
	})
	sys.RunFor(time.Second)

	// A's data must be in the backend; B's must not be (still only dirty in
	// the cache).
	var aData, bData []byte
	sys.Go(func(p *sim.Proc) {
		aData, _ = sys.KVFS.Read(p, inoA, 0, 8192)
		bData, _ = sys.KVFS.Read(p, inoB, 0, 8192)
	})
	sys.RunFor(time.Second)
	sys.Shutdown()

	if !bytes.Equal(aData, payloadA) {
		t.Fatal("fsynced file not durable in backend")
	}
	if bytes.Equal(bData, payloadB) {
		t.Fatal("un-synced file reached the backend without a flush daemon")
	}
}
