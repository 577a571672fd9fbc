package dpc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dpc/internal/kvfs"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/wal"
)

// failingBackend fails every write-back, so no dirty page ever leaves the
// cache and every CacheEvict round frees nothing.
type failingBackend struct {
	kvfs.PageBackend
	writes int
}

func (b *failingBackend) WritePage(*sim.Proc, uint64, uint64, int, []byte) error {
	b.writes++
	return errors.New("backend down")
}

// TestBufferedWriteThroughFallback drives writePageCached past a failed
// CacheEvict round. The cache is one bucket of four pages, all dirty, with
// prefetch and the flush daemon off, over a backend whose write-back fails.
// The round's four failed write-backs put the cache into degraded mode, so
// the write asks for no second round (which would only retry them). A
// buffered write of an absent page then cannot enter the cache and goes
// through to KVFS: its bytes land there (nothing else could carry them,
// with write-back failing), trimmed to the EOF the write published, so the
// file does not grow to the page boundary. With a WAL attached the
// write-through journals no generation bump: the dirty pages still in the
// cache keep their log records.
func TestBufferedWriteThroughFallback(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			opts := DefaultOptions()
			opts.CachePages, opts.CacheBuckets = 4, 1
			opts.Ctl.PrefetchEnabled, opts.Ctl.FlushEnabled = false, false
			opts.WAL.Enabled = withWAL
			o := obs.New()
			opts.Model.Obs = o
			sys := New(opts)
			defer sys.Shutdown()
			cl := sys.KVFSClient()
			ps := uint64(cachePageSize)
			const off, n = 5*cachePageSize + 50, 100 // in page 5, past the EOF of pages 0-3
			data := bytes.Repeat([]byte{0x5A}, n)
			failing := &failingBackend{PageBackend: kvfs.PageBackend{FS: sys.KVFS}}

			var ino uint64
			sys.Drive(func(p *sim.Proc) {
				f, err := cl.Create(p, 0, "/f")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				ino = f.Ino
				if err := f.Write(p, 0, 0, bytes.Repeat([]byte{0x11}, 4*int(ps)), false); err != nil {
					t.Errorf("filling the bucket: %v", err)
					return
				}
				sys.KVFSService().Ctl.SetBackend(failing)
				if err := f.Write(p, 0, off, data, false); err != nil {
					t.Errorf("buffered write of page 5: %v", err)
				}
			})
			if failing.writes == 0 || !cl.cacheHost.Degraded() {
				t.Fatalf("%d failed write-backs, degraded %v: the evict rounds never tried the backend", failing.writes, cl.cacheHost.Degraded())
			}
			evicts := 0
			for _, sd := range o.Tracer().Export(sys.Now()) {
				if sd.Name == "dispatch.cache_evict" {
					evicts++
				}
			}
			if failing.writes > 4 || evicts != 1 {
				t.Errorf("%d backend write-backs over %d CacheEvict commands, want at most 4 over 1: eviction went on after the cache degraded", failing.writes, evicts)
			}

			var size uint64
			var gotN, gens int
			got := make([]byte, ps)
			sys.Drive(func(p *sim.Proc) {
				if cl.cacheHost.LookupInto(p, ino, 5, 0, got) {
					t.Error("page 5 entered the full bucket")
				}
				a, err := sys.KVFS.Getattr(p, ino)
				if err != nil {
					t.Errorf("getattr: %v", err)
				}
				size = a.Size
				if gotN, err = sys.KVFS.ReadInto(p, ino, 5*ps, got); err != nil {
					t.Errorf("direct read of page 5: %v", err)
				}
				if withWAL {
					st, err := sys.WAL.Recover(p, func(*sim.Proc, wal.Record) error { return nil })
					if err != nil {
						t.Errorf("reading the log: %v", err)
					}
					gens = st.GenRecs
				}
			})
			if size != off+n {
				t.Errorf("KVFS size %d, want %d: the write-through was not trimmed to EOF", size, off+n)
			}
			want := append(make([]byte, off-5*ps), data...)
			if !bytes.Equal(got[:gotN], want) {
				t.Errorf("KVFS holds %d bytes of page 5, want the %d written after a 50-byte hole", gotN, len(want))
			}
			if gens != 0 {
				t.Errorf("the write-through journaled %d generation bumps, want none", gens)
			}
		})
	}
}
