// Package ssd models a local NVMe SSD: the Huawei ES3600P V5 from the
// paper's testbed (88 µs read / 14 µs write latency). The device stores real
// bytes (sparse 4 KB blocks), so the local file system built on top of it is
// functionally real; timing is charged per I/O as media latency plus
// serialization over the device's internal bandwidth.
//
// The device has a bounded number of internal channels, which is what caps
// random IOPS: the paper observes local Ext4 "reaches the limit of the NVMe
// SSD" past 32 concurrent threads. Channels and buses are clocks, not queues.
package ssd

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/stats"
)

// BlockSize is the device's internal block granule.
const BlockSize = 4096

// Config describes the device's performance envelope.
//
//dpclint:params
type Config struct {
	ReadLatency  time.Duration // media latency per read I/O
	WriteLatency time.Duration // media latency per write I/O (DRAM-buffered)
	ReadBps      int64         // sustained read bandwidth
	WriteBps     int64         // sustained write bandwidth
	Channels     int           // internal parallelism
	CapacityMB   int           // addressable capacity (bounds-checks only)
	// BarrierLatency is the media cost of a flush/FUA barrier. Zero (the
	// default) charges one WriteLatency, the historical model; it exists as
	// a separate knob so what-if sweeps can dial barrier cost independently
	// of ordinary write service time.
	BarrierLatency time.Duration
}

// DefaultConfig models the paper's ES3600P V5.
func DefaultConfig() Config {
	return Config{
		ReadLatency:  88 * time.Microsecond,
		WriteLatency: 14 * time.Microsecond,
		ReadBps:      3_200_000_000,
		WriteBps:     2_100_000_000,
		Channels:     32,
		CapacityMB:   16 * 1024,
	}
}

// Device is a simulated NVMe SSD.
type Device struct {
	cfg Config
	// channels books the internal channels; readFree and writeFree hold the
	// instant the read and the write bus finish their last booked transfer.
	channels  *sim.Servers
	readFree  sim.Time
	writeFree sim.Time
	blocks    map[int64][]byte

	// volatile, when non-nil, models the device's volatile write buffer for
	// power-fail experiments: every block written since the last Barrier is
	// tracked with an undo image, and Crash reverts a random subset of them
	// (a block either fully persisted or fully didn't — tearing is at block
	// granularity, like real flash). nil (the default) disables tracking, so
	// ordinary runs pay nothing.
	volatile map[int64][]byte
	// freeImages recycles undo images from Barrier, which makes them
	// obsolete, to WriteRaw. One that Crash made a live block never enters.
	freeImages [][]byte

	// The first four are published as ssd.dev.* by AttachObs.
	Reads      stats.Counter
	Writes     stats.Counter
	BytesRead  stats.Counter
	BytesWrite stats.Counter
	Barriers   stats.Counter
	// ReadErrs/WriteErrs count injected media errors; Stalls counts
	// injected latency spikes. Maintained only on fault runs.
	ReadErrs  stats.Counter
	WriteErrs stats.Counter
	Stalls    stats.Counter

	// faults is consulted on every timed I/O; nil means no injection.
	faults *fault.Injector

	// o records per-I/O spans; nil when disabled. Media latency and bus
	// payload time record CompSSD service intervals on it, channel/bus
	// queueing and injected stalls record CompWait.
	o *obs.Obs
}

// AttachObs registers the device's counters ("ssd.dev.*") and enables
// per-I/O spans and attribution. Safe with a nil hub.
func (d *Device) AttachObs(o *obs.Obs) {
	d.o = o
	o.Publish("ssd.dev.reads", d.Reads.Loc())
	o.Publish("ssd.dev.writes", d.Writes.Loc())
	o.Publish("ssd.dev.bytes_read", d.BytesRead.Loc())
	o.Publish("ssd.dev.bytes_written", d.BytesWrite.Loc())
}

// SetFaults attaches a fault injector to the timed I/O paths.
func (d *Device) SetFaults(in *fault.Injector) { d.faults = in }

// New creates a device.
func New(eng *sim.Engine, cfg Config) *Device {
	if cfg.Channels <= 0 || cfg.ReadBps <= 0 || cfg.WriteBps <= 0 {
		panic(fmt.Sprintf("ssd: bad config %+v", cfg))
	}
	if cfg.BarrierLatency <= 0 {
		cfg.BarrierLatency = cfg.WriteLatency
	}
	return &Device{
		cfg:      cfg,
		channels: sim.NewServers(cfg.Channels),
		blocks:   map[int64][]byte{},
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > int64(d.cfg.CapacityMB)*1024*1024 {
		panic(fmt.Sprintf("ssd: access [%d,+%d) beyond capacity %d MB", off, n, d.cfg.CapacityMB))
	}
}

// Read performs a timed read of n bytes at byte offset off. An injected
// transient media error is charged the full I/O time and then fails; an
// injected stall adds the rule's delay on top of the modeled latency.
func (d *Device) Read(p *sim.Proc, off int64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := d.ReadInto(p, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is Read into a caller-owned buffer, which it fills completely.
func (d *Device) ReadInto(p *sim.Proc, off int64, dst []byte) error {
	n := len(dst)
	d.checkRange(off, n)
	s := d.o.Begin(p, "ssd.read")
	kind, delay, injected := d.faults.At(fault.SiteSSDRead)
	d.transfer(p, "ssd.read", d.cfg.ReadLatency, &d.readFree, time.Duration(int64(n)*int64(time.Second)/d.cfg.ReadBps))
	d.Reads.Inc()
	d.BytesRead.Add(int64(n))
	if injected {
		switch kind {
		case fault.KindSSDReadErr:
			d.ReadErrs.Inc()
			s.End(p)
			return fault.Errf(kind, "ssd read [%d,+%d)", off, n)
		case fault.KindSSDStall:
			d.Stalls.Inc()
			d.o.Sleep(p, delay, obs.CompWait, "ssd.stall")
		}
	}
	s.End(p)
	d.copyOut(off, dst)
	return nil
}

// Write performs a timed write of data at byte offset off. Fault semantics
// mirror Read; a failed write leaves the stored bytes untouched.
func (d *Device) Write(p *sim.Proc, off int64, data []byte) error {
	d.checkRange(off, len(data))
	s := d.o.Begin(p, "ssd.write")
	kind, delay, injected := d.faults.At(fault.SiteSSDWrite)
	d.transfer(p, "ssd.write", d.cfg.WriteLatency, &d.writeFree, time.Duration(int64(len(data))*int64(time.Second)/d.cfg.WriteBps))
	d.Writes.Inc()
	d.BytesWrite.Add(int64(len(data)))
	if injected {
		switch kind {
		case fault.KindSSDWriteErr:
			d.WriteErrs.Inc()
			s.End(p)
			return fault.Errf(kind, "ssd write [%d,+%d)", off, len(data))
		case fault.KindSSDStall:
			d.Stalls.Inc()
			d.o.Sleep(p, delay, obs.CompWait, "ssd.stall")
		}
	}
	s.End(p)
	d.WriteRaw(off, data)
	return nil
}

// transfer charges one I/O: the channel that frees first serves its media
// latency, then its bus (none for a barrier), a FIFO of one, serializes its
// payload, and the channel is held until the payload is through. Every media
// latency of a kind is the same constant, so bus arrivals never decrease in
// issue order and the whole I/O is known at issue: p books the channel and
// the bus and sleeps once.
func (d *Device) transfer(p *sim.Proc, kind string, media time.Duration, bus *sim.Time, payload time.Duration) {
	now := p.Now()
	start := d.channels.Grant(now)
	arrive := start + sim.Time(media)
	xfer, end := arrive, arrive
	if bus != nil {
		xfer = max(arrive, *bus)
		end = xfer + sim.Time(payload)
		*bus = end
	}
	d.channels.Book(start, end)
	p.SleepUntil(end)
	d.o.Attr(p, obs.CompWait, "ssd.queue", now, start)
	d.o.Attr(p, obs.CompSSD, kind, start, arrive)
	d.o.Attr(p, obs.CompWait, "ssd.bus", arrive, xfer)
	d.o.Attr(p, obs.CompSSD, kind, xfer, end)
}

// ReadRaw reads stored bytes without charging time (used for verification
// and by the timed path). Unwritten ranges read as zeros.
func (d *Device) ReadRaw(off int64, n int) []byte {
	d.checkRange(off, n)
	out := make([]byte, n)
	d.copyOut(off, out)
	return out
}

// copyOut fills dst with the stored bytes at off, zeros where unwritten.
func (d *Device) copyOut(off int64, dst []byte) {
	for i, n := 0, len(dst); i < n; {
		blk := (off + int64(i)) / BlockSize
		bo := int((off + int64(i)) % BlockSize)
		chunk := min(BlockSize-bo, n-i)
		if b, ok := d.blocks[blk]; ok {
			copy(dst[i:i+chunk], b[bo:bo+chunk])
		} else {
			clear(dst[i : i+chunk])
		}
		i += chunk
	}
}

// WriteRaw stores bytes without charging time.
func (d *Device) WriteRaw(off int64, data []byte) {
	d.checkRange(off, len(data))
	for i := 0; i < len(data); {
		blk := (off + int64(i)) / BlockSize
		bo := int((off + int64(i)) % BlockSize)
		chunk := min(BlockSize-bo, len(data)-i)
		b, ok := d.blocks[blk]
		if !ok {
			b = make([]byte, BlockSize)
			d.blocks[blk] = b
		}
		if d.volatile != nil {
			if _, seen := d.volatile[blk]; !seen {
				if ok {
					var img []byte
					if k := len(d.freeImages) - 1; k >= 0 {
						img, d.freeImages = d.freeImages[k], d.freeImages[:k]
					}
					d.volatile[blk] = append(img[:0], b...)
				} else {
					// nil undo image: the block did not exist before this
					// write, so a revert deletes it.
					d.volatile[blk] = nil
				}
			}
		}
		copy(b[bo:bo+chunk], data[i:i+chunk])
		i += chunk
	}
}

// EnableCrashTracking arms power-fail tracking: from now on, blocks written
// between Barriers are revertible by Crash.
func (d *Device) EnableCrashTracking() {
	if d.volatile == nil {
		d.volatile = map[int64][]byte{}
	}
}

// CrashTracking reports whether power-fail tracking is armed. Durability
// layers use it to decide whether a barrier is worth its (timed) cost.
func (d *Device) CrashTracking() bool { return d.volatile != nil }

// Barrier is a timed flush/FUA barrier: it drains the device's volatile
// write buffer, so every block written before the barrier survives a Crash.
// Modeled as one BarrierLatency media op through a channel.
func (d *Device) Barrier(p *sim.Proc) {
	s := d.o.Begin(p, "ssd.barrier")
	d.transfer(p, "ssd.barrier", d.cfg.BarrierLatency, nil, 0)
	d.Barriers.Inc()
	for _, img := range d.volatile {
		if img != nil {
			d.freeImages = append(d.freeImages, img)
		}
	}
	clear(d.volatile)
	s.End(p)
}

// Crash models a power failure: each block written since the last Barrier
// independently either persisted or reverts to its pre-write image, chosen
// by rng (deterministic under the harness's seeded PRNG). Returns how many
// blocks were lost. Only meaningful after EnableCrashTracking; the device
// remains usable (reflecting the post-crash platter) for state extraction.
func (d *Device) Crash(rng *rand.Rand) int {
	if d.volatile == nil || len(d.volatile) == 0 {
		return 0
	}
	blks := make([]int64, 0, len(d.volatile))
	for blk := range d.volatile {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	lost := 0
	for _, blk := range blks {
		if rng.Intn(2) == 0 {
			continue // persisted
		}
		if undo := d.volatile[blk]; undo == nil {
			delete(d.blocks, blk)
		} else {
			d.blocks[blk] = undo
		}
		lost++
	}
	clear(d.volatile)
	return lost
}

// Snapshot deep-copies the device's stored blocks (crash-image extraction).
func (d *Device) Snapshot() map[int64][]byte {
	out := make(map[int64][]byte, len(d.blocks))
	for blk, b := range d.blocks {
		out[blk] = append([]byte(nil), b...)
	}
	return out
}

// Restore replaces the device's stored blocks with a deep copy of snap
// (transplanting a crash image into a fresh machine).
func (d *Device) Restore(snap map[int64][]byte) {
	d.blocks = make(map[int64][]byte, len(snap))
	for blk, b := range snap {
		d.blocks[blk] = append([]byte(nil), b...)
	}
	clear(d.volatile)
	d.freeImages = nil
}
