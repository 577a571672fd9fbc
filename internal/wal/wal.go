// Package wal is the cache write-ahead log: a record-framed, checksummed
// append log on the simulated local SSD that turns fsync into a durability
// contract. The DPU-side cache control plane journals an inode's dirty
// pages (and metadata generation bumps) here before acknowledging fsync;
// the pages stay dirty in the host cache and reach the backend later via
// the ordinary flush daemon. After a crash, replaying the log's valid
// prefix against the backend reconstructs every acknowledged fsync.
//
// Layout on the device, from byte 0:
//
//	block 0                superblock: magic | epoch | CRC
//	blocks 1..            append region: back-to-back records
//
// Each record is a 40-byte header (CRC over header tail + payload, epoch,
// kind, generation, ino, lpn, payload length) followed by the payload. A
// record is valid iff its CRC matches and its epoch equals the superblock's:
// replay walks records from the region start and stops at the first invalid
// one — a CRC mismatch over non-blank bytes is a torn tail (power failed
// mid-append), blank or stale-epoch bytes are the clean end of the log.
//
// Group commit: concurrent Commit calls gather into one group; the first
// arrival leads, sleeps the commit window, then persists the whole group
// with a single device write + barrier, so N concurrent fsyncs cost one
// barrier instead of N (the "fsyncs per barrier" amortization BENCH_9
// measures).
//
// Checkpoint bumps the epoch and resets the append head to the region
// start: all existing records become stale-epoch residue that replay
// ignores, which is how the log wraps after the cache has written
// everything back. The caller must flush all journaled-but-unflushed state
// to the backend before checkpointing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"dpc/internal/fault"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/ssd"
)

// Record kinds.
const (
	// RecPage journals one dirty cache page: payload = page bytes, applied
	// at replay through the backend's EOF-clamping WritePage semantics.
	RecPage = 1
	// RecGen bumps an inode's generation (truncate/unlink). Page records
	// whose generation is older than the inode's final generation in the
	// log are stale and skipped at replay — without this, a pre-truncate
	// page journal could resurrect dead bytes into a re-extended file.
	RecGen = 2
)

const (
	recHdrSize = 40
	// MaxPayload bounds one record's payload (a cache page plus slack).
	MaxPayload = 64 * 1024

	sbMagic = "DPCWAL1\x00"
)

// Record is one journal entry.
type Record struct {
	Kind uint8
	Ino  uint64
	LPN  uint64 // page number (RecPage)
	Gen  uint64 // inode generation the record was journaled under
	// Data is the page payload (RecPage); nil for RecGen. Commit reads it
	// until it returns (a follower's records are framed by its group leader)
	// and does not retain it: the caller may then recycle the buffer. Records
	// handed out by Recover own their Data.
	Data []byte
}

// ErrFull means the append region cannot hold the group: the caller must
// flush the cache and Checkpoint, then retry.
var ErrFull = errors.New("wal: append region full")

// Config sizes and tunes the log.
type Config struct {
	// Enabled turns the WAL on (dpc.Options embeds this config; everything
	// — device, metrics, timers — is created only when set).
	Enabled bool
	// Size is the total region size in bytes including the superblock
	// block. Default 4 MiB.
	Size int64
	// GroupWindow is the commit window: how long a group leader waits for
	// concurrent fsyncs to join before persisting. Default 20µs; 0 commits
	// each group immediately (still one barrier per group).
	GroupWindow time.Duration
}

// DefaultConfig returns the standard WAL geometry (disabled).
func DefaultConfig() Config {
	return Config{Size: 4 << 20, GroupWindow: 20 * time.Microsecond}
}

func (c *Config) normalize() {
	if c.Size <= 2*ssd.BlockSize {
		c.Size = 4 << 20
	}
}

// ReplayStats summarizes one recovery pass.
type ReplayStats struct {
	Records      int           // valid records scanned
	Replayed     int           // page records applied to the backend
	SkippedStale int           // page records dropped by the generation filter
	GenRecs      int           // generation records seen
	TornTails    int           // scans ended by a CRC mismatch over non-blank bytes
	Bytes        int64         // valid log bytes scanned
	Duration     time.Duration // virtual time the recovery pass took
}

// group is one in-flight commit batch. Records are kept unserialized until
// the group write: framing stamps the epoch, and the epoch must be read
// under the commit lock so a checkpoint can never slip between framing and
// persisting. Groups and their Conds are recycled (Log.free), but only once
// every member has read err (leave): a follower never reads the result of a
// later group.
type group struct {
	recs    []Record
	bytes   int // framed size of recs
	done    *sim.Cond
	err     error
	ok      bool // committed (or failed); waiters may return
	members int  // the group's Commit calls that have not yet read err
}

// Log is the write-ahead log over one region of an ssd.Device.
type Log struct {
	eng *sim.Engine
	dev *ssd.Device
	cfg Config

	epoch uint32
	head  int64 // next append offset, relative to the data region start
	// needsScan blocks Commit until Recover has walked the log: an existing
	// superblock means the head is unknown and appending blind would
	// overwrite acknowledged records.
	needsScan bool

	cur   *group
	free  []*group      // groups every member has left
	wlock *sim.Resource // serializes group writes in commit order
	// frame is writeGroup's framing buffer, reused across groups: group
	// writes are serialized by wlock and the device copies what it stores.
	frame  []byte
	faults *fault.Injector

	// Registry-owned metrics; nil no-op sinks unless AttachObs ran. The wal.*
	// family only ever registers on WAL-enabled systems, so WAL-off metric
	// snapshots keep their exact key set.
	oAppends     *obs.Counter
	oCommits     *obs.Counter
	oBytes       *obs.Counter
	oGroupSize   *obs.Gauge
	oReplayed    *obs.Counter
	oTorn        *obs.Counter
	oStale       *obs.Counter
	oCheckpoints *obs.Counter
	oRecoveryNs  *obs.Gauge
}

// Open adopts an existing log on the device (recognized superblock: the
// epoch is adopted and Recover must run before Commit) or formats a fresh
// one (epoch 1, empty region). Formatting happens at boot, before the
// engine runs, so it uses untimed raw writes.
func Open(eng *sim.Engine, dev *ssd.Device, cfg Config) *Log {
	cfg.normalize()
	l := &Log{
		eng:   eng,
		dev:   dev,
		cfg:   cfg,
		wlock: sim.NewResource(eng, "wal-commit", 1),
	}
	dev.EnableCrashTracking()
	if epoch, ok := parseSuper(dev.ReadRaw(0, ssd.BlockSize)); ok {
		l.epoch = epoch
		l.needsScan = true
	} else {
		l.epoch = 1
		dev.WriteRaw(0, buildSuper(l.epoch))
	}
	return l
}

// Reopen re-reads the superblock after the crash harness replaced the
// device image underneath (Device().Restore of a post-crash snapshot):
// adopt the surviving epoch and force a Recover before the next Commit.
// An unrecognizable superblock is left for Recover to format.
func (l *Log) Reopen() {
	l.cur = nil
	l.head = 0
	if epoch, ok := parseSuper(l.dev.ReadRaw(0, ssd.BlockSize)); ok {
		l.epoch = epoch
	} else {
		l.epoch = 0
	}
	l.needsScan = true
}

// AttachObs registers the wal.* metric family. Call only on WAL-enabled
// systems: registering the keys changes metric snapshots.
func (l *Log) AttachObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	l.oAppends = o.Counter("wal.appends")
	l.oCommits = o.Counter("wal.commits")
	l.oBytes = o.Counter("wal.bytes")
	l.oGroupSize = o.Gauge("wal.group_size")
	l.oReplayed = o.Counter("wal.replayed")
	l.oTorn = o.Counter("wal.torn_tails")
	l.oStale = o.Counter("wal.skipped_stale")
	l.oCheckpoints = o.Counter("wal.checkpoints")
	l.oRecoveryNs = o.Gauge("wal.recovery_ns")
}

// SetFaults attaches a fault injector to the commit and replay paths.
func (l *Log) SetFaults(in *fault.Injector) { l.faults = in }

// Device returns the underlying device (the crash harness snapshots it).
func (l *Log) Device() *ssd.Device { return l.dev }

// dataSize is the append region's capacity in bytes.
func (l *Log) dataSize() int64 { return l.cfg.Size - ssd.BlockSize }

// dataBase is the device byte offset of the append region.
func (l *Log) dataBase() int64 { return ssd.BlockSize }

// NeedCheckpoint reports whether an append of extra more bytes (plus any
// group already gathering) would overflow the region.
func (l *Log) NeedCheckpoint(extra int) bool {
	pend := int64(0)
	if l.cur != nil {
		pend = int64(l.cur.bytes)
	}
	return l.head+pend+int64(extra) > l.dataSize()
}

// RecordSize returns the on-log size of a record with a plen-byte payload.
func RecordSize(plen int) int { return recHdrSize + plen }

// Commit journals recs as one atomic unit through group commit: the call
// returns once the group holding recs is persisted (one device write + one
// barrier for the whole group) or failed. A failed group leaves the head
// unmoved — nothing it contained is acknowledged, and the next group
// overwrites its bytes. Returns ErrFull when the region must checkpoint
// first.
func (l *Log) Commit(p *sim.Proc, recs []Record) error {
	if l.needsScan {
		panic("wal: Commit before Recover on an adopted log")
	}
	g := l.cur
	lead := g == nil
	if lead {
		if k := len(l.free) - 1; k >= 0 {
			g, l.free = l.free[k], l.free[:k]
		} else {
			g = &group{done: sim.NewCond(l.eng, "wal-group")}
		}
		l.cur = g
	}
	g.members++
	for i := range recs {
		if len(recs[i].Data) > MaxPayload {
			panic(fmt.Sprintf("wal: record payload %d exceeds %d", len(recs[i].Data), MaxPayload))
		}
		g.bytes += RecordSize(len(recs[i].Data))
	}
	g.recs = append(g.recs, recs...)
	if !lead {
		for !g.ok {
			g.done.Wait(p)
		}
		return l.leave(g)
	}
	if l.cfg.GroupWindow > 0 {
		p.Sleep(l.cfg.GroupWindow)
	}
	l.cur = nil // close the window; later arrivals form the next group
	l.wlock.Acquire(p)
	err := l.writeGroup(p, g)
	l.wlock.Release()
	g.err = err
	g.ok = true
	g.done.Broadcast()
	return l.leave(g)
}

// leave returns g's result to one of its members and recycles g once the
// last member has it. The group drops its records: their buffers are the
// callers' again.
func (l *Log) leave(g *group) error {
	err := g.err
	if g.members--; g.members == 0 {
		clear(g.recs)
		g.recs, g.bytes, g.err, g.ok = g.recs[:0], 0, nil, false
		l.free = append(l.free, g)
	}
	return err
}

// writeGroup persists one gathered group: a single device write of the
// concatenated records followed by a barrier, then the head advances. A
// WAL-site fault tears or corrupts the on-log bytes and fails the commit —
// the head stays put, so nothing in the group is acknowledged and recovery
// must prove it detects the damage instead of replaying it.
func (l *Log) writeGroup(p *sim.Proc, g *group) error {
	if l.head+int64(g.bytes) > l.dataSize() {
		return ErrFull
	}
	if cap(l.frame) < g.bytes {
		l.frame = make([]byte, 0, g.bytes)
	}
	buf := l.frame[:0]
	for i := range g.recs {
		buf = appendRecord(buf, l.epoch, &g.recs[i])
	}
	off := l.dataBase() + l.head
	if kind, _, injected := l.faults.At(fault.SiteWAL); injected {
		switch kind {
		case fault.KindWALTorn:
			n := len(buf) / 2
			if n == 0 {
				n = 1
			}
			_ = l.dev.Write(p, off, buf[:n])
			return fault.Errf(kind, "wal commit torn at +%d of %d bytes", n, len(buf))
		case fault.KindWALCorrupt:
			buf[len(buf)/3] ^= 0x40
			_ = l.dev.Write(p, off, buf)
			return fault.Errf(kind, "wal commit corrupted (%d bytes)", len(buf))
		}
	}
	if err := l.dev.Write(p, off, buf); err != nil {
		return err
	}
	l.dev.Barrier(p)
	l.head += int64(len(buf))
	l.oCommits.Inc()
	l.oAppends.Add(int64(len(g.recs)))
	l.oBytes.Add(int64(len(buf)))
	l.oGroupSize.Set(float64(len(g.recs)))
	return nil
}

// appendRecord frames one record:
//
//	0:4   crc32(IEEE) over bytes 4:40 + payload
//	4:8   epoch
//	8     kind
//	9:12  zero padding
//	12:16 payload length
//	16:24 ino
//	24:32 lpn
//	32:40 gen
//
// The header is written in place in dst: a header array of its own would
// escape to the heap through the checksum call.
func appendRecord(dst []byte, epoch uint32, r *Record) []byte {
	le := binary.LittleEndian
	n := len(dst)
	dst = append(dst, make([]byte, recHdrSize)...)
	h := dst[n:]
	le.PutUint32(h[4:], epoch)
	h[8] = r.Kind
	le.PutUint32(h[12:], uint32(len(r.Data)))
	le.PutUint64(h[16:], r.Ino)
	le.PutUint64(h[24:], r.LPN)
	le.PutUint64(h[32:], r.Gen)
	le.PutUint32(h[0:], crc32.Update(crc32.ChecksumIEEE(h[4:]), crc32.IEEETable, r.Data))
	return append(dst, r.Data...)
}

// Recover walks the log's valid prefix and applies every durable page
// record through apply, in log order, skipping records made stale by a
// later generation bump of the same inode. It reads through the timed
// device path (recovery time is real virtual time; a WAL-site replay-stall
// fault slows it further), leaves the head at the end of the valid prefix,
// and unblocks Commit. Idempotent: recovering twice yields byte-identical
// backend state, because apply goes through EOF-clamped page writes.
func (l *Log) Recover(p *sim.Proc, apply func(p *sim.Proc, r Record) error) (st ReplayStats, err error) {
	// Named result: the deferred stamp below must reach the caller's copy.
	t0 := p.Now()
	defer func() {
		st.Duration = time.Duration(p.Now() - t0)
		l.oRecoveryNs.Set(float64(st.Duration))
		l.oReplayed.Add(int64(st.Replayed))
		l.oTorn.Add(int64(st.TornTails))
		l.oStale.Add(int64(st.SkippedStale))
	}()

	sb, err := l.dev.Read(p, 0, ssd.BlockSize)
	if err != nil {
		return st, fmt.Errorf("wal: superblock read: %w", err)
	}
	epoch, ok := parseSuper(sb)
	if !ok {
		// Nothing recognizable: a crash before the very first superblock
		// barrier landed. Format and start empty.
		l.epoch = 1
		l.head = 0
		l.needsScan = false
		if err := l.dev.Write(p, 0, buildSuper(l.epoch)); err != nil {
			return st, err
		}
		l.dev.Barrier(p)
		return st, nil
	}
	l.epoch = epoch

	recs, tail, torn := l.scan(p)
	st.TornTails = torn
	st.Records = len(recs)
	st.Bytes = tail

	// Final-generation filter: a page record is stale iff the same inode
	// carries a later RecGen anywhere in the valid prefix (truncate/unlink
	// happened after the page was journaled — applying it could resurrect
	// dead bytes).
	finalGen := map[uint64]uint64{}
	for i := range recs {
		if recs[i].Kind == RecGen && recs[i].Gen > finalGen[recs[i].Ino] {
			finalGen[recs[i].Ino] = recs[i].Gen
		}
	}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case RecGen:
			st.GenRecs++
		case RecPage:
			if r.Gen < finalGen[r.Ino] {
				st.SkippedStale++
				continue
			}
			if err := apply(p, *r); err != nil {
				return st, fmt.Errorf("wal: replay ino %d lpn %d: %w", r.Ino, r.LPN, err)
			}
			st.Replayed++
		}
	}
	l.head = tail
	l.needsScan = false
	return st, nil
}

// scan reads the append region through the timed path and parses records
// until the log ends: a blank or stale-epoch header is the clean end, a CRC
// mismatch over non-blank bytes is a torn tail. Returns the valid records,
// the byte length of the valid prefix, and the torn-tail count (0 or 1).
func (l *Log) scan(p *sim.Proc) (recs []Record, tail int64, torn int) {
	const chunk = 32 * 1024
	size := l.dataSize()
	buf := []byte{}
	bufBase := int64(0) // region offset of buf[0]
	// ensure makes buf cover [off, off+n) of the region, reading more
	// chunks through the timed device path as needed.
	ensure := func(off int64, n int) []byte {
		for bufBase+int64(len(buf)) < off+int64(n) {
			rdOff := bufBase + int64(len(buf))
			rdN := chunk
			if rdOff+int64(rdN) > size {
				rdN = int(size - rdOff)
			}
			if rdN <= 0 {
				return nil
			}
			if kind, delay, injected := l.faults.At(fault.SiteWAL); injected && kind == fault.KindWALReplayStall {
				p.Sleep(delay)
			}
			data, err := l.dev.Read(p, l.dataBase()+rdOff, rdN)
			if err != nil {
				// Treat an unreadable region like the end of the log: the
				// valid prefix is what matters.
				return nil
			}
			buf = append(buf, data...)
		}
		return buf[off-bufBase : off-bufBase+int64(n)]
	}

	le := binary.LittleEndian
	off := int64(0)
	for off+recHdrSize <= size {
		h := ensure(off, recHdrSize)
		if h == nil {
			break
		}
		blank := true
		for _, b := range h {
			if b != 0 {
				blank = false
				break
			}
		}
		if blank {
			break // never-written space: clean end
		}
		epoch := le.Uint32(h[4:])
		kind := h[8]
		plen := int(le.Uint32(h[12:]))
		if epoch != l.epoch {
			break // previous-epoch residue: clean end
		}
		if (kind != RecPage && kind != RecGen) || plen > MaxPayload || off+recHdrSize+int64(plen) > size {
			torn++ // header damaged into nonsense
			break
		}
		payload := ensure(off+recHdrSize, plen)
		if plen > 0 && payload == nil {
			torn++
			break
		}
		crc := crc32.NewIEEE()
		crc.Write(h[4:])
		crc.Write(payload)
		if crc.Sum32() != le.Uint32(h[0:]) {
			torn++ // power failed mid-append: torn record
			break
		}
		recs = append(recs, Record{
			Kind: kind,
			Ino:  le.Uint64(h[16:]),
			LPN:  le.Uint64(h[24:]),
			Gen:  le.Uint64(h[32:]),
			Data: append([]byte(nil), payload...),
		})
		off += recHdrSize + int64(plen)
	}
	return recs, off, torn
}

// Checkpoint bumps the epoch and resets the head: every record on the log
// becomes stale residue replay ignores. The caller must have written all
// journaled state to the backend first. The new superblock is persisted
// with a barrier before the call returns; superblock writes are
// single-block, so a crash mid-checkpoint leaves either the old or the new
// epoch — both consistent.
func (l *Log) Checkpoint(p *sim.Proc) error {
	l.wlock.Acquire(p) // never interleave with a group write
	err := l.dev.Write(p, 0, buildSuper(l.epoch+1))
	if err == nil {
		l.dev.Barrier(p)
		l.epoch++
		l.head = 0
		l.oCheckpoints.Inc()
	}
	l.wlock.Release()
	return err
}

// buildSuper serializes a superblock (one device block).
func buildSuper(epoch uint32) []byte {
	b := make([]byte, ssd.BlockSize)
	copy(b, sbMagic)
	binary.LittleEndian.PutUint32(b[8:], epoch)
	crc := crc32.ChecksumIEEE(b[:12])
	binary.LittleEndian.PutUint32(b[12:], crc)
	return b
}

// parseSuper validates a superblock image and returns its epoch.
func parseSuper(b []byte) (epoch uint32, ok bool) {
	if len(b) < 16 || string(b[:8]) != sbMagic {
		return 0, false
	}
	if crc32.ChecksumIEEE(b[:12]) != binary.LittleEndian.Uint32(b[12:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b[8:]), true
}
