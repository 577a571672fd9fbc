package virtio

import (
	"fmt"

	"dpc/internal/fuse"
	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Handler processes decoded FUSE requests on the DPU (DPFS-FUSE + backend).
type Handler func(p *sim.Proc, req fuse.Request) fuse.Response

// Config sizes the transport.
type Config struct {
	// QueueSize is the number of descriptors (power of two). DPFS's kernel
	// implementation supports only a single queue, so there is exactly one.
	QueueSize int
	// Slots is the number of concurrent request slabs (bounds in-flight
	// requests).
	Slots int
	// MaxIO is the largest payload one request may carry.
	MaxIO int
}

// DefaultConfig suits small-I/O experiments.
func DefaultConfig() Config {
	return Config{QueueSize: 1024, Slots: 256, MaxIO: 64 * 1024}
}

type pending struct {
	cond    *sim.Cond
	done    bool
	errno   int32
	usedLen uint32
	// span is the submitter's request span, carried across the host→HAL hop
	// so the DPU-side span nests under the operation that published the
	// chain (mirrors the span on nvmefs's Pending).
	span obs.Span
}

// Transport is the DPFS-style virtio-fs transport: FUSE requests encoded by
// the host, a single virtqueue, and a single DPFS-HAL thread on the DPU that
// walks the rings over PCIe.
type Transport struct {
	m       *model.Machine
	cfg     Config
	vq      *Virtqueue
	handler Handler

	kickBar mem.Addr
	kick    *sim.Mailbox[struct{}]

	slabBase   mem.Addr
	slabStride int
	freeSlots  []int
	slotCond   *sim.Cond
	chainCond  *sim.Cond

	inflight   map[uint16]*pending // by chain head
	slotOf     map[uint16]int      // chain head -> slot
	nextUnique uint64

	// o is the machine's observability hub (nil no-op when disabled); it
	// also takes wait-interval attribution.
	o *obs.Obs

	// Completed counts finished requests (for tests and experiments).
	Completed int64
}

// NewTransport builds the transport, allocating its rings and slabs from the
// machine's host memory arena, and starts the HAL thread.
func NewTransport(m *model.Machine, cfg Config, handler Handler) *Transport {
	if cfg.QueueSize < 4 || cfg.Slots < 1 || cfg.MaxIO < 4096 {
		panic(fmt.Sprintf("virtio: bad config %+v", cfg))
	}
	base := m.AllocHost(Layout(cfg.QueueSize), 4096)
	t := &Transport{
		m:          m,
		cfg:        cfg,
		vq:         NewVirtqueue(m.HostMem, base, cfg.QueueSize),
		handler:    handler,
		kickBar:    m.AllocDPU(64, 64),
		kick:       sim.NewMailbox[struct{}](m.Eng, "vq-kick", 1),
		slotCond:   sim.NewCond(m.Eng, "vq-slots"),
		chainCond:  sim.NewCond(m.Eng, "vq-chains"),
		inflight:   map[uint16]*pending{},
		slotOf:     map[uint16]int{},
		slabStride: 4096 + cfg.MaxIO + 4096,
		o:          m.Obs,
	}
	// One reservation per slab, back to back: only the slabs a workload
	// touches are backed.
	t.slabBase = m.AllocHost(t.slabStride, 4096)
	for i := 1; i < cfg.Slots; i++ {
		m.AllocHost(t.slabStride, 1)
	}
	for i := cfg.Slots - 1; i >= 0; i-- {
		t.freeSlots = append(t.freeSlots, i)
	}
	m.Eng.Go("dpfs-hal", t.halLoop)
	return t
}

func (t *Transport) slotBufs(slot int) (inBuf, dataBuf, outBuf mem.Addr) {
	b := t.slabBase + mem.Addr(slot*t.slabStride)
	return b, b + 4096, b + 4096 + mem.Addr(t.cfg.MaxIO)
}

// Write issues a FUSE WRITE of data at offset to nodeID and waits for the
// completion.
func (t *Transport) Write(p *sim.Proc, nodeID, fh, offset uint64, data []byte) error {
	if len(data) > t.cfg.MaxIO {
		return fmt.Errorf("virtio: write %d exceeds MaxIO %d", len(data), t.cfg.MaxIO)
	}
	_, errno := t.do(p, fuse.OpWrite, nodeID, fh, offset, data, 0)
	if errno != 0 {
		return fmt.Errorf("virtio: write errno %d", errno)
	}
	return nil
}

// Read issues a FUSE READ of n bytes at offset and returns the data.
func (t *Transport) Read(p *sim.Proc, nodeID, fh, offset uint64, n int) ([]byte, error) {
	if n > t.cfg.MaxIO {
		return nil, fmt.Errorf("virtio: read %d exceeds MaxIO %d", n, t.cfg.MaxIO)
	}
	data, errno := t.do(p, fuse.OpRead, nodeID, fh, offset, nil, n)
	if errno != 0 {
		return nil, fmt.Errorf("virtio: read errno %d", errno)
	}
	return data, nil
}

// do runs one request through the FUSE + virtio path.
func (t *Transport) do(p *sim.Proc, opcode uint32, nodeID, fh, offset uint64,
	writeData []byte, readLen int) ([]byte, int32) {

	costs := t.m.Cfg.Costs
	spanName := "virtio.write"
	if opcode == fuse.OpRead {
		spanName = "virtio.read"
	}
	s := t.o.Begin(p, spanName)
	// FUSE request transformation in the kernel (the "overburdened" queue
	// path the paper describes).
	t.m.HostExec(p, costs.HostFUSEEncode)

	// Take a request slab.
	if len(t.freeSlots) == 0 {
		waitFrom := p.Now()
		for len(t.freeSlots) == 0 {
			t.slotCond.Wait(p)
		}
		t.o.Attr(p, obs.CompWait, "virtio.slot", waitFrom, p.Now())
	}
	slot := t.freeSlots[len(t.freeSlots)-1]
	t.freeSlots = t.freeSlots[:len(t.freeSlots)-1]
	inBuf, dataBuf, outBuf := t.slotBufs(slot)

	// Encode the command into host memory: in-header + read/write body.
	t.nextUnique++
	unique := t.nextUnique
	cmdLen := fuse.InHeaderSize + fuse.WriteInSize
	hdr := fuse.InHeader{
		Len:    uint32(cmdLen + len(writeData)),
		Opcode: opcode,
		Unique: unique,
		NodeID: nodeID,
	}
	var cmd [fuse.InHeaderSize + fuse.WriteInSize]byte
	hdr.Marshal(cmd[:])
	io := fuse.IOIn{FH: fh, Offset: offset, Size: uint32(len(writeData))}
	if opcode == fuse.OpRead {
		io.Size = uint32(readLen)
	}
	io.Marshal(cmd[fuse.InHeaderSize:])
	t.m.HostMem.Write(inBuf, cmd[:])

	// FUSE copies the payload into its buffer (no zero-copy here, unlike
	// nvme-fs).
	if len(writeData) > 0 {
		t.m.HostMem.Write(dataBuf, writeData)
		t.m.HostExec(p, costs.HostCopyPerPage*int64((len(writeData)+4095)/4096))
	}
	t.m.HostExec(p, costs.HostFUSEQueue)

	// Build the descriptor chain: command, then 4 KB data pages (the guest
	// kernel maps the payload page by page), then the response header.
	bufs := []Buf{{Addr: inBuf, Len: uint32(cmdLen)}}
	if opcode == fuse.OpWrite {
		for off := 0; off < len(writeData); off += 4096 {
			n := len(writeData) - off
			if n > 4096 {
				n = 4096
			}
			bufs = append(bufs, Buf{Addr: dataBuf + mem.Addr(off), Len: uint32(n)})
		}
		bufs = append(bufs, Buf{Addr: outBuf, Len: fuse.OutHeaderSize, DeviceWritable: true})
	} else {
		bufs = append(bufs, Buf{Addr: outBuf, Len: fuse.OutHeaderSize, DeviceWritable: true})
		for off := 0; off < readLen; off += 4096 {
			n := readLen - off
			if n > 4096 {
				n = 4096
			}
			bufs = append(bufs, Buf{Addr: dataBuf + mem.Addr(off), Len: uint32(n), DeviceWritable: true})
		}
	}

	var head uint16
	chainFrom := sim.Time(-1)
	for {
		var ok bool
		head, ok = t.vq.AllocChain(bufs)
		if ok {
			break
		}
		if chainFrom < 0 {
			chainFrom = p.Now()
		}
		t.chainCond.Wait(p)
	}
	if chainFrom >= 0 {
		t.o.Attr(p, obs.CompWait, "virtio.chain", chainFrom, p.Now())
	}

	pd := &pending{cond: sim.NewCond(t.m.Eng, "vq-req"), span: s}
	t.inflight[head] = pd
	t.slotOf[head] = slot

	// Publish and kick the device.
	t.vq.PushAvail(head)
	t.m.PCIe.MMIOWrite32(p, t.m.DPUMem, t.kickBar, 1, "vq-kick")
	t.kick.TrySend(struct{}{})

	if !pd.done {
		waitFrom := p.Now()
		for !pd.done {
			pd.cond.Wait(p)
		}
		t.o.Attr(p, obs.CompWait, "virtio.inflight", waitFrom, p.Now())
	}

	// Completion processing on the host.
	t.m.HostExec(p, costs.HostComplete)
	for {
		id, _, ok := t.vq.PopUsed()
		if !ok {
			break
		}
		_ = id // completion state was already delivered via pending
	}
	oh, err := fuse.UnmarshalOutHeader(t.m.HostMem.Read(outBuf, fuse.OutHeaderSize))
	if err != nil {
		panic("virtio: corrupt out-header: " + err.Error())
	}
	if oh.Unique != unique {
		panic(fmt.Sprintf("virtio: completion unique %d, want %d", oh.Unique, unique))
	}

	var out []byte
	if opcode == fuse.OpRead && pd.errno == 0 {
		n := int(pd.usedLen) - fuse.OutHeaderSize
		if n < 0 {
			n = 0
		}
		out = t.m.HostMem.Read(dataBuf, n)
		t.m.HostExec(p, costs.HostCopyPerPage*int64((n+4095)/4096))
	}

	// Release resources.
	t.vq.FreeChain(head)
	delete(t.inflight, head)
	delete(t.slotOf, head)
	t.freeSlots = append(t.freeSlots, slot)
	t.chainCond.Broadcast()
	t.slotCond.Signal()
	t.Completed++
	s.End(p)
	return out, pd.errno
}

// halLoop is the single DPFS-HAL thread on the DPU.
func (t *Transport) halLoop(p *sim.Proc) {
	costs := t.m.Cfg.Costs
	link := t.m.PCIe
	for {
		// One kick token per wakeup. Pushes that arrive while the HAL is
		// processing a batch enqueue a fresh token (the mailbox is empty
		// once Recv returns), so no published chain is ever missed.
		t.kick.Recv(p)
		p.Sleep(costs.HALPollDelay)
		availIdx := t.vq.DevReadAvailIdx(p, link) // DMA ①
		n := t.vq.DevPendingAvail(availIdx)
		for i := 0; i < n; i++ {
			t.processOne(p)
		}
	}
}

// processOne handles one published chain, issuing the DMA sequence of
// Figure 2(b).
func (t *Transport) processOne(p *sim.Proc) {
	costs := t.m.Cfg.Costs
	link := t.m.PCIe
	hm := t.m.HostMem

	// The HAL span opens before the avail-entry read (the ring walk is part
	// of the HAL's per-request work) and is linked under the submitter's
	// span once the chain head identifies the request.
	hs := t.o.Begin(p, "virtio.hal")

	head := t.vq.DevReadAvailEntry(p, link) // DMA ②
	hs.SetParent(t.inflight[head].span)

	// Walk the descriptor chain entry by entry (DMAs ③…).
	var descs []Desc
	i := head
	for {
		d := t.vq.DevReadDesc(p, link, i)
		descs = append(descs, d)
		if d.Flags&DescFlagNext == 0 {
			break
		}
		i = d.Next
	}
	t.m.DPUExec(p, costs.DPUHALProcess)

	// Read the command buffer (first descriptor).
	cmd := link.DMARead(p, hm, descs[0].Addr, int(descs[0].Len), "fuse-cmd")
	hdr, err := fuse.UnmarshalInHeader(cmd)
	if err != nil {
		panic("virtio: corrupt request: " + err.Error())
	}
	io, _ := fuse.UnmarshalIOIn(cmd[fuse.InHeaderSize:])

	// Partition the remaining descriptors.
	var readable, writable []Desc
	for _, d := range descs[1:] {
		if d.Flags&DescFlagWrite != 0 {
			writable = append(writable, d)
		} else {
			readable = append(readable, d)
		}
	}

	// Read the write payload: contiguous pages coalesce into one DMA.
	var data []byte
	for _, run := range coalesce(readable) {
		data = append(data, link.DMARead(p, hm, run.Addr, int(run.Len), "fuse-data")...)
	}

	resp := t.handler(p, fuse.Request{Header: hdr, IO: io, Data: data})

	// writable[0] is the out-header; the rest receive read data.
	usedLen := uint32(fuse.OutHeaderSize)
	if len(resp.Data) > 0 && len(writable) > 1 {
		dataDescs := writable[1:]
		remaining := resp.Data
		for _, run := range coalesce(dataDescs) {
			n := int(run.Len)
			if n > len(remaining) {
				n = len(remaining)
			}
			if n == 0 {
				break
			}
			link.DMAWrite(p, hm, run.Addr, remaining[:n], "fuse-rdata")
			remaining = remaining[n:]
			usedLen += uint32(n)
		}
	}

	oh := fuse.OutHeader{Len: usedLen, Error: resp.Error, Unique: hdr.Unique}
	var ohb [fuse.OutHeaderSize]byte
	oh.Marshal(ohb[:])
	link.DMAWrite(p, hm, writable[0].Addr, ohb[:], "fuse-resp") // DMA ⑨

	t.vq.DevWriteUsedElem(p, link, head, usedLen) // DMA ⑩
	t.vq.DevWriteUsedIdx(p, link)                 // DMA ⑪

	// Interrupt the host.
	pd := t.inflight[head]
	errno := resp.Error
	ul := usedLen
	t.m.Eng.After(costs.HostIRQDelay, func() {
		pd.done = true
		pd.errno = errno
		pd.usedLen = ul
		pd.cond.Signal()
	})
	hs.End(p)
}

// coalesce merges physically contiguous descriptors into single DMA runs.
func coalesce(descs []Desc) []Desc {
	var out []Desc
	for _, d := range descs {
		if n := len(out); n > 0 && out[n-1].Addr+mem.Addr(out[n-1].Len) == d.Addr {
			out[n-1].Len += d.Len
			continue
		}
		out = append(out, Desc{Addr: d.Addr, Len: d.Len})
	}
	return out
}
