package dpc

import (
	"bytes"
	"testing"
	"time"

	"dpc/internal/kvfs"
	"dpc/internal/sim"
)

// TestFlushClampsToEOF is the regression test for the hybrid-cache flush
// size-inflation bug: a buffered write of a non-page-aligned length used to
// be flushed as whole PageSize pages, extending attr.Size to the next page
// boundary with zero padding. After the fix, write-back clamps to the true
// EOF: the stat size is exact, reads past EOF return nothing, the content
// round-trips, and fsck finds a consistent store.
func TestFlushClampsToEOF(t *testing.T) {
	const size = 10000 // crosses one page boundary, ends mid-page

	sys := New(DefaultOptions())
	cl := sys.KVFSClient()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(31*i + 7)
	}
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/clamp")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, false); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Sync(p, 0); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	sys.RunFor(time.Second)

	var (
		stSize  uint64
		full    []byte
		pastEOF []byte
		probs   []string
	)
	sys.Go(func(p *sim.Proc) {
		st, err := cl.StatPath(p, 0, "/clamp")
		if err != nil {
			t.Errorf("stat: %v", err)
			return
		}
		stSize = st.Size
		f, err := cl.Open(p, 0, "/clamp")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		full, _ = f.Read(p, 0, 0, 4*size, true)
		pastEOF, _ = f.Read(p, 0, size, 8192, true)
		probs = kvfs.Fsck(sys.KVCluster).Problems
	})
	sys.RunFor(time.Second)
	sys.Shutdown()

	if stSize != size {
		t.Errorf("flushed size = %d, want %d (flush inflated the file past EOF)", stSize, size)
	}
	if len(pastEOF) != 0 {
		t.Errorf("read past EOF returned %d bytes, want none", len(pastEOF))
	}
	if !bytes.Equal(full, payload) {
		t.Errorf("content does not round-trip through flush (got %d bytes)", len(full))
	}
	if len(probs) > 0 {
		t.Errorf("fsck after flush: %v", probs)
	}
}
