package dpc

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dpc/internal/obs"
	"dpc/internal/prof"
	"dpc/internal/sim"
	"dpc/internal/telemetry"
)

// probeRun is everything an observer could perturb: the clock, each op's
// virtual latency, the bytes read back, and every component-owned count.
type probeRun struct {
	now      sim.Time
	lats     []time.Duration
	read     []byte
	counters map[string]int64
	// settleWait is the attributed cache.settle wait; observed runs only.
	settleWait time.Duration
}

// runProbeMix drives a fixed cached KVFS mix — buffered writes, fsync through
// the WAL (the one SSD of a KVFS system), cache hits, direct writes, and a
// sequential buffered scan that misses, fills and prefetches, then rewrite +
// fsync rounds across several flush-daemon passes, each rewrite followed by a
// direct read, so that fsyncs park in Ctl.settle behind the daemon's
// write-backs — unobserved, or observed: the
// registry, the tracer with its attribution, and a telemetry sampler with an
// SLO.
func runProbeMix(t *testing.T, observed bool) probeRun {
	t.Helper()
	opts := DefaultOptions()
	opts.CachePages, opts.CacheBuckets = 128, 16
	opts.WAL.Enabled = true
	if observed {
		opts.Model.Obs = obs.New()
	}
	sys := New(opts)
	if observed {
		slo := []string{"p99(client.read.latency) < 1ms over 1ms"}
		if _, err := telemetry.Attach(sys.M.Eng, sys.Obs(), telemetry.Config{SLOs: slo}); err != nil {
			t.Fatalf("telemetry.Attach: %v", err)
		}
	}

	var r probeRun
	const page, hot, cold = 8192, 48, 160
	cl := sys.KVFSClient()
	sys.Drive(func(p *sim.Proc) {
		buf := make([]byte, page)
		op := func(what string, fn func() error) bool {
			t0 := p.Now()
			if err := fn(); err != nil {
				t.Errorf("%s: %v", what, err)
				return false
			}
			r.lats = append(r.lats, time.Duration(p.Now()-t0))
			return true
		}
		read := func(f *File, pg uint64, direct bool) bool {
			ok := op("read", func() error { _, err := f.ReadInto(p, 0, pg*page, buf, direct); return err })
			r.read = append(r.read, buf...)
			return ok
		}
		var hotF, coldF *File
		if !op("create", func() (err error) { hotF, err = cl.Create(p, 0, "/hot.dat"); return }) ||
			!op("create", func() (err error) { coldF, err = cl.Create(p, 0, "/cold.dat"); return }) {
			return
		}
		for i := uint64(0); i < hot; i++ {
			for j := range buf {
				buf[j] = byte(i + uint64(j))
			}
			if !op("buffered write", func() error { return hotF.Write(p, 0, i*page, buf, false) }) {
				return
			}
			if i%8 == 7 && !op("fsync", func() error { return hotF.Sync(p, 0) }) {
				return
			}
		}
		for i := uint64(0); i < hot; i++ {
			if !read(hotF, i, false) {
				return
			}
		}
		for i := uint64(0); i < cold; i++ {
			for j := range buf {
				buf[j] = byte(3*i + uint64(j))
			}
			if !op("direct write", func() error { return coldF.Write(p, 0, i*page, buf, true) }) {
				return
			}
		}
		for i := uint64(0); i < cold; i++ {
			if !read(coldF, i, i%16 == 15) {
				return
			}
		}
		for i := uint64(0); i < 4*hot; i++ {
			// The direct read keeps the rewritten page dirty and unjournaled
			// for a backend round trip: an fsync journals only what changed
			// since the last one, so it meets a daemon-held page only if a
			// flush pass began while such a page was waiting for it.
			if !op("buffered rewrite", func() error { return hotF.Write(p, 0, i%hot*page, buf, false) }) ||
				!read(coldF, i%cold, true) {
				return
			}
			if i%4 == 3 && !op("fsync", func() error { return hotF.Sync(p, 0) }) {
				return
			}
		}
	})
	r.now = sys.Now()
	if observed {
		r.settleWait = time.Duration(prof.Analyze(sys.Obs().Tracer().Export(r.now)).WaitKinds["cache.settle"])
	}
	sys.Shutdown()

	host, ctl, link, ssd := sys.kvfsHost, sys.kvfsSvc.Ctl, sys.M.PCIe, sys.WALDev
	r.counters = map[string]int64{
		"pcie.dmas": link.DMAs.Total(), "pcie.h2d": link.DMABytesH2D.Total(), "pcie.d2h": link.DMABytesD2H.Total(),
		"pcie.mmios": link.MMIOs.Total(), "pcie.atomics": link.Atomics.Total(),
		"pcie.pios": link.PIOs.Total(), "pcie.pio_bytes": link.PIOBytes.Total(),
		"host.hits": host.Hits.Total(), "host.misses": host.Misses.Total(),
		"host.cached_writes": host.CachedWr.Total(), "host.write_full": host.WriteFull.Total(),
		"ctl.flushes": ctl.Flushes.Total(), "ctl.evictions": ctl.Evictions.Total(),
		"ctl.prefetches": ctl.Prefetches.Total(), "ctl.fills": ctl.Fills.Total(),
		"dispatch.requests": sys.Dispatcher.Requests.Total(), "dispatch.cache_fills": sys.Dispatcher.CacheFills.Total(),
		"nvmefs.completed": sys.Driver.Completed, "nvmefs.retries": sys.Driver.Retries,
		"ssd.reads": ssd.Reads.Total(), "ssd.writes": ssd.Writes.Total(),
		"ssd.bytes_read": ssd.BytesRead.Total(), "ssd.bytes_written": ssd.BytesWrite.Total(),
		"ssd.barriers": ssd.Barriers.Total(),
	}
	return r
}

// TestZeroProbeEffect: observing the system changes nothing it can observe.
// The same mix runs with obs off and with obs plus a telemetry sampler on;
// the clock, every op latency, the bytes read and every component counter
// must be identical. The counters are comparable at all because each lives
// in its component, obs or no obs.
func TestZeroProbeEffect(t *testing.T) {
	base := runProbeMix(t, false)
	for _, name := range []string{"ctl.fills", "ctl.prefetches", "ctl.evictions", "ctl.flushes", "host.hits", "ssd.writes"} {
		if base.counters[name] == 0 {
			t.Errorf("the mix never exercised %s", name)
		}
	}
	got := runProbeMix(t, true)
	if got.now != base.now {
		t.Errorf("final Now %v, unobserved %v", got.now, base.now)
	}
	if !reflect.DeepEqual(got.lats, base.lats) {
		t.Error("per-op virtual latencies differ from the unobserved run")
	}
	if !bytes.Equal(got.read, base.read) {
		t.Error("read bytes differ from the unobserved run")
	}
	for c, want := range base.counters {
		if got.counters[c] != want {
			t.Errorf("%s = %d, unobserved %d", c, got.counters[c], want)
		}
	}
	if got.settleWait == 0 {
		t.Error("the mix never parked an fsync behind a write-back (no cache.settle wait attributed)")
	}
}
