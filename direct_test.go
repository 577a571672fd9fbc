package dpc

import (
	"bytes"
	"errors"
	"testing"

	"dpc/internal/fault"
	"dpc/internal/sim"
)

// directReadSystem builds a cacheless system with 4 KiB chunks, where one
// persistently-dropped completion turns into ErrTimeout after nvme-fs's nine
// attempts (the first plus eight retries).
func directReadSystem(t *testing.T, rules []fault.Rule) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.CachePages = 0
	opts.NvmeFS.MaxIO = 4096
	opts.Faults = rules
	return New(opts)
}

// The direct read pipeline, EOF side: a fault on a chunk issued past the
// first short chunk (a "straggler") must not fail the read — everything past
// the observed EOF is drained and discarded, payloads and errors alike.
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

// The direct read pipeline, error side: a failure on a chunk below EOF must
// surface, and the remaining in-flight chunks must still be drained — the
// driver stays usable for the next operation.
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

// The write half of the direct pipeline: a three-chunk direct write whose
// completions are all dropped until every attempt is spent must report
// ErrTimeout, having drained its in-flight chunks, and leave the driver
// usable for the next direct write and read.
func TestWriteDirectErrorDrainsAndReports(t *testing.T) {
	// Create is completion 1; completions 2-28 are the three chunks' nine
	// attempts each.
	sys := directReadSystem(t, []fault.Rule{
		{Site: fault.SiteComplete, Kind: fault.KindDropCompletion, FromOp: 2, Count: 27},
	})
	cl := sys.KVFSClient()
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/writeErr")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, payload, true); !errors.Is(err, ErrTimeout) {
			t.Errorf("Write with every completion dropped = %v, want ErrTimeout", err)
		}
		if err := f.Write(p, 0, 0, payload, true); err != nil {
			t.Errorf("follow-up Write: %v", err)
			return
		}
		got, err := f.Read(p, 0, 0, 16384, true)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("follow-up Read = %d bytes, err %v", len(got), err)
		}
	})
	sys.Run()
	sys.Shutdown()
	if sys.Driver.Timeouts != 27 {
		t.Fatalf("Timeouts = %d, want 27", sys.Driver.Timeouts)
	}
}

// A zero-length read or write moves no bytes, so it must not pay the direct
// path's O_DIRECT pre-sync either: a dirty page stays dirty.
func TestZeroLengthIODoesNotFlush(t *testing.T) {
	opts := DefaultOptions()
	opts.Ctl.FlushEnabled = false // no daemon: only an explicit sync flushes
	sys := New(opts)
	cl := sys.KVFSClient()
	ctl := sys.kvfsSvc.Ctl
	sys.Go(func(p *sim.Proc) {
		f, err := cl.Create(p, 0, "/zero")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Write(p, 0, 0, make([]byte, 4096), false); err != nil {
			t.Errorf("buffered Write: %v", err)
			return
		}
		before := ctl.Flushes.Total()
		for _, direct := range []bool{false, true} {
			if err := f.Write(p, 0, 0, nil, direct); err != nil {
				t.Errorf("zero-length Write (direct=%v): %v", direct, err)
			}
			if n, err := f.ReadInto(p, 0, 0, nil, direct); n != 0 || err != nil {
				t.Errorf("zero-length ReadInto (direct=%v) = %d, %v", direct, n, err)
			}
		}
		if got := ctl.Flushes.Total(); got != before {
			t.Errorf("zero-length I/O flushed %d pages", got-before)
		}
	})
	sys.Run()
	sys.Shutdown()
}
