package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dpc"
	"dpc/internal/cache"
	"dpc/internal/cpu"
	"dpc/internal/dfs"
	"dpc/internal/dispatch"
	"dpc/internal/ec"
	"dpc/internal/fabric"
	"dpc/internal/mem"
	"dpc/internal/model"
	"dpc/internal/nvme"
	"dpc/internal/nvmefs"
	"dpc/internal/sim"
	"dpc/internal/ssd"
	"dpc/internal/wal"
	"dpc/internal/xform"
)

// Layer probes give each package a host-time figure. A wall interval around
// a blocking call only belongs to the callee when nothing else runs, so
// each probe drives a minimal world from one sim proc and calls only the
// layer's public functions; what it times is that layer plus the engine
// under it. Every figure is the median of probeBatches batches.
const probeBatches = 5

type prober struct {
	scale float64
	out   map[string]float64
}

func (pr *prober) n(calls int) int {
	if v := int(float64(calls) * pr.scale); v > 4 {
		return v
	}
	return 4
}

// batches times body in probeBatches batches of n calls, after a warm-up
// quarter batch, and returns the median wall ns and heap allocations per
// call. between, if set, runs untimed before each batch.
func batches(n int, between func(), body func(i int)) (ns, allocs float64) {
	idx := 0
	for i := 0; i < n/4+1; i++ {
		body(idx)
		idx++
	}
	var nss, as []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		if between != nil {
			between()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body(idx)
			idx++
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		as = append(as, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(as)
}

// onProc runs fn as the only application proc of eng and steps the engine
// until it returns.
func onProc(eng *sim.Engine, fn func(p *sim.Proc)) {
	done := false
	eng.Go("probe", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	for !done {
		eng.RunUntil(eng.Now() + sim.Time(time.Millisecond))
	}
}

func runProbes(scale float64) map[string]float64 {
	pr := &prober{scale: scale, out: map[string]float64{}}
	pr.simProbes()
	pr.memPCIeProbes()
	pr.nvmefsProbes()
	pr.cacheProbes()
	pr.kvfsStackProbes()
	pr.fabricProbe()
	pr.walSSDProbes()
	pr.dfsProbes()
	pr.codecProbes()
	return pr.out
}

func (pr *prober) simProbes() {
	eng := sim.NewEngine(1)
	onProc(eng, func(p *sim.Proc) {
		pr.out["sim.switch_host_ns"], pr.out["sim.switch_allocs"] =
			batches(pr.n(20000), nil, func(int) { p.Sleep(time.Microsecond) })
	})

	// A plain scheduled event: a callback that re-arms itself, no proc.
	n := pr.n(50000)
	var fired int
	var tick func()
	tick = func() {
		if fired++; fired%n != 0 {
			eng.After(time.Microsecond, tick)
		}
	}
	pr.out["sim.event_host_ns"], _ = batches(1, nil, func(int) {
		eng.After(0, tick)
		eng.Run()
	})
	pr.out["sim.event_host_ns"] /= float64(n)

	ping := sim.NewMailbox[int](eng, "probe-ping", 0)
	pong := sim.NewMailbox[int](eng, "probe-pong", 0)
	eng.Go("probe-echo", func(p *sim.Proc) {
		for {
			pong.Send(p, ping.Recv(p))
		}
	})
	onProc(eng, func(p *sim.Proc) {
		pr.out["sim.mailbox_rtt_host_ns"], _ = batches(pr.n(20000), nil, func(i int) {
			ping.Send(p, i)
			pong.Recv(p)
		})
	})
	eng.Shutdown()
}

func (pr *prober) memPCIeProbes() {
	r := mem.NewRegion("probe", 0x1000, 1<<20)
	var sink []byte
	pr.out["mem.read_8k_host_ns"], pr.out["mem.read_allocs"] = batches(pr.n(50000), nil, func(i int) {
		sink = r.Read(0x1000+mem.Addr(i%64)*pageSize, pageSize)
	})
	_ = sink

	cfg := model.Default()
	cfg.HostMemMB, cfg.DPUMemMB = 8, 8
	m := model.NewMachine(cfg)
	host, bell := m.AllocHost(pageSize, 4096), m.AllocDPU(8, 8)
	onProc(m.Eng, func(p *sim.Proc) {
		pr.out["pcie.dma_read_8k_host_ns"], _ = batches(pr.n(10000), nil, func(int) {
			m.PCIe.DMARead(p, m.HostMem, host, pageSize, "probe")
		})
		pr.out["pcie.mmio_host_ns"], _ = batches(pr.n(10000), nil, func(i int) {
			m.PCIe.MMIOWrite32(p, m.DPUMem, bell, uint32(i), "probe")
		})
	})
	m.Eng.Shutdown()
}

func (pr *prober) nvmefsProbes() {
	w := newWorld(findWorkload("raw_small"), runCfg{seed: 1, scale: 0.001})
	defer w.shutdown()
	ps := w.procs[0]
	write := func(slot int) nvmefs.Submission {
		hdr := make([]byte, rawHdrLen)
		putRawHeader(hdr, 0, uint32(slot%rawSlots), 0, 0)
		return nvmefs.Submission{FileOp: nvme.FileOpWrite, Header: hdr, Payload: ps.wbuf}
	}
	one := write(0)
	burst := make([]nvmefs.Submission, 16)
	for i := range burst {
		burst[i] = write(i)
	}
	onProc(w.m.Eng, func(p *sim.Proc) {
		pr.out["nvmefs.submit_8k_host_ns"], pr.out["nvmefs.submit_8k_allocs"] = batches(pr.n(5000), nil, func(int) {
			if c := w.drv.Submit(p, 0, one); !c.OK() {
				panic("bench: probe submit failed")
			}
		})
		ns, _ := batches(pr.n(500), nil, func(int) {
			for _, pend := range w.drv.SubmitBatch(p, 0, burst) {
				if c := pend.Wait(p); !c.OK() {
					panic("bench: probe batch submit failed")
				}
			}
		})
		pr.out["nvmefs.batch16_host_ns_per_cmd"] = ns / float64(len(burst))
	})
}

// stubBackend accepts every write-back and has no pages: the control plane's
// own cost, with nothing behind it.
type stubBackend struct{}

func (stubBackend) ReadPage(*sim.Proc, uint64, uint64, int) ([]byte, bool) { return nil, false }
func (stubBackend) WritePage(*sim.Proc, uint64, uint64, int, []byte) error { return nil }

// cacheWorld is a bare hybrid cache of 8192 pages: layout in host memory,
// host data plane, DPU control plane over a stub backend, no daemon.
func cacheWorld() (*model.Machine, *cache.Host, *cache.Ctl) {
	cfg := model.Default()
	cfg.HostMemMB, cfg.DPUMemMB = 80, 8
	m := model.NewMachine(cfg)
	probe := cache.NewLayout(0, pageSize, 8192, 256)
	l := cache.NewLayout(m.AllocHost(probe.Size(), 4096), pageSize, 8192, 256)
	cache.InitHeader(m.HostMem, l, cache.ModeWrite)
	cc := cache.DefaultCtlConfig()
	cc.FlushEnabled, cc.PrefetchEnabled = false, false
	return m, cache.NewHost(m, l), cache.NewCtl(m, l, stubBackend{}, cc)
}

func (pr *prober) cacheProbes() {
	page := make([]byte, pageSize)
	dst := make([]byte, pageSize)

	m, host, ctl := cacheWorld()
	onProc(m.Eng, func(p *sim.Proc) {
		// Clean table: nothing cached yet, so a pass is the scan and nothing else.
		passes := pr.n(40)
		v0, b0 := p.Now(), m.PCIe.DMABytesH2D.Total()
		ns, _ := batches(passes, nil, func(int) {
			if _, err := ctl.FlushPass(p, 256); err != nil {
				panic(err)
			}
		})
		done := float64(passes/4 + 1 + probeBatches*passes)
		pr.out["cache.ctl.pass_clean_host_us"] = ns / 1e3
		pr.out["cache.ctl.pass_clean_virt_us"] = float64(p.Now()-v0) / 1e3 / done
		pr.out["cache.ctl.pass_clean_dma_bytes"] = float64(m.PCIe.DMABytesH2D.Total()-b0) / done

		if !host.WritePage(p, 1, 0, page) {
			panic("bench: probe page did not fit an empty cache")
		}
		pr.out["cache.host.lookup_hit_host_ns"], _ = batches(pr.n(50000), nil, func(int) {
			if !host.LookupInto(p, 1, 0, 0, dst) {
				panic("bench: probe lookup missed")
			}
		})
		pr.out["cache.host.write_host_ns"], _ = batches(pr.n(50000), nil, func(int) {
			host.WritePage(p, 1, 0, page)
		})

		// 256 dirty pages per pass: the write-back path per page.
		const dirty = 256
		lpn := uint64(0)
		ns, _ = batches(1, func() {
			for k := 0; k < dirty; k++ {
				lpn++
				host.WritePage(p, 2, lpn%4096, page)
			}
		}, func(int) {
			if _, err := ctl.FlushPass(p, 1<<30); err != nil {
				panic(err)
			}
		})
		pr.out["cache.ctl.pass_dirty_host_us_per_page"] = ns / 1e3 / dirty

		// fsync-shaped: 4 dirty pages of one inode among 8192 entries.
		ns, _ = batches(pr.n(20), nil, func(int) {
			for k := 0; k < 4; k++ {
				host.WritePage(p, 3, uint64(k), page)
			}
			if _, err := ctl.FlushIno(p, 3); err != nil {
				panic(err)
			}
		})
		pr.out["cache.ctl.flush_ino_host_us"] = ns / 1e3
	})
	m.Eng.Shutdown()

	m, _, ctl = cacheWorld()
	onProc(m.Eng, func(p *sim.Proc) {
		n := pr.n(1000) // 5.25 batches of distinct pages stay below the 8192 entries
		pr.out["cache.ctl.fill_host_ns"], _ = batches(n, nil, func(i int) {
			ctl.FillPage(p, 4, uint64(i), page)
		})
	})
	m.Eng.Shutdown()
}

// kvfsStackProbes drives one default KVFS system layer by layer, bottom up:
// kv client, KVFS, IO_Dispatch, then the client's cache-hit read.
func (pr *prober) kvfsStackProbes() {
	opts := dpc.DefaultOptions()
	opts.Ctl.FlushEnabled = false // one proc only: no daemon scanning behind the probe
	sys := dpc.New(opts)
	defer sys.Shutdown()
	const filePages = 128
	page := make([]byte, pageSize)
	rand.New(rand.NewSource(1)).Read(page)
	dst := make([]byte, pageSize)
	onProc(sys.M.Eng, func(p *sim.Proc) {
		f, err := sys.KVFSClient().Create(p, 0, "/probe")
		if err != nil {
			panic(err)
		}
		for lpn := 0; lpn < filePages; lpn++ {
			if err := f.Write(p, 0, uint64(lpn)*pageSize, page, true); err != nil {
				panic(err)
			}
		}
		off := func(i int) uint64 { return uint64(i%filePages) * pageSize }

		kvc := sys.KVCluster.NewClient(sys.M.DPUNode)
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("probe-%d", i)
		}
		pr.out["kv.put_host_ns"], _ = batches(pr.n(2000), nil, func(i int) {
			kvc.Put(p, keys[i%len(keys)], page)
		})
		pr.out["kv.get_host_ns"], _ = batches(pr.n(2000), nil, func(i int) {
			if _, ok := kvc.Get(p, keys[i%len(keys)]); !ok {
				panic("bench: probe key missing")
			}
		})

		pr.out["kvfs.read_8k_host_ns"], _ = batches(pr.n(2000), nil, func(i int) {
			if data, err := sys.KVFS.Read(p, f.Ino, off(i), pageSize); err != nil || len(data) != pageSize {
				panic(fmt.Sprintf("bench: probe kvfs read: %d bytes, %v", len(data), err))
			}
		})
		pr.out["kvfs.write_8k_host_ns"], pr.out["kvfs.write_8k_allocs"] = batches(pr.n(2000), nil, func(i int) {
			if err := sys.KVFS.Write(p, f.Ino, off(i), page); err != nil {
				panic(err)
			}
		})

		pr.out["dispatch.handle_read_host_ns"], _ = batches(pr.n(2000), nil, func(i int) {
			hdr := dispatch.ReqHeader{Ino: f.Ino, Off: off(i), Len: pageSize}
			resp := sys.Dispatcher.Handle(p, nvmefs.Request{Tenant: -1,
				SQE: nvme.SQE{FileOp: nvme.FileOpRead, Dispatch: nvme.DispatchKVFS}, Header: hdr.Marshal()})
			if resp.Status != nvme.StatusOK || len(resp.Data) != pageSize {
				panic("bench: probe dispatch read failed")
			}
		})

		if _, err := f.ReadInto(p, 0, 0, dst, false); err != nil { // fill the page
			panic(err)
		}
		pr.out["client.read_hit_host_ns"], pr.out["client.read_hit_allocs"] = batches(pr.n(50000), nil, func(int) {
			if n, err := f.ReadInto(p, 0, 0, dst, false); err != nil || n != pageSize {
				panic("bench: probe cached read failed")
			}
		})
	})
}

func (pr *prober) fabricProbe() {
	eng := sim.NewEngine(1)
	net := fabric.NewNetwork(eng, fabric.DefaultConfig())
	a, b := net.NewNode("probe-a"), net.NewNode("probe-b")
	port := b.Listen("echo")
	eng.Go("probe-server", func(p *sim.Proc) {
		for {
			fabric.RecvRPC(p, port).Reply(p, b, nil, 64)
		}
	})
	onProc(eng, func(p *sim.Proc) {
		pr.out["fabric.call_host_ns"], _ = batches(pr.n(10000), nil, func(int) { a.Call(p, b, "echo", nil, 64) })
	})
	eng.Shutdown()
}

func (pr *prober) walSSDProbes() {
	eng := sim.NewEngine(1)
	page := make([]byte, pageSize)
	dev := ssd.New(eng, ssd.DefaultConfig())
	wc := wal.DefaultConfig()
	wc.Enabled = true
	log := wal.Open(eng, ssd.New(eng, ssd.DefaultConfig()), wc)
	onProc(eng, func(p *sim.Proc) {
		pr.out["ssd.write_8k_host_ns"], _ = batches(pr.n(5000), nil, func(i int) {
			if err := dev.Write(p, int64(i%8192)*pageSize, page); err != nil {
				panic(err)
			}
		})
		pr.out["ssd.barrier_host_ns"], _ = batches(pr.n(5000), nil, func(int) { dev.Barrier(p) })
		pr.out["wal.commit_8k_host_ns"], _ = batches(pr.n(2000), nil, func(i int) {
			if log.NeedCheckpoint(wal.RecordSize(pageSize)) {
				if err := log.Checkpoint(p); err != nil {
					panic(err)
				}
			}
			if err := log.Commit(p, []wal.Record{{Kind: wal.RecPage, Ino: 1, LPN: uint64(i), Data: page}}); err != nil {
				panic(err)
			}
		})
	})
	eng.Shutdown()
}

func (pr *prober) dfsProbes() {
	eng := sim.NewEngine(1)
	net := fabric.NewNetwork(eng, fabric.DefaultConfig())
	backend := dfs.NewBackend(eng, net, dfs.DefaultBackendConfig())
	core := dfs.NewCore(backend, net.NewNode("probe-client"), cpu.NewPool(eng, "probe-cpu", 8, 2_000_000_000), dfs.DefaultCoreCosts())
	page := make([]byte, pageSize)
	onProc(eng, func(p *sim.Proc) {
		ino, err := core.Create(p, "/probe")
		if err != nil {
			panic(err)
		}
		off := func(i int) uint64 { return uint64(i%128) * pageSize }
		pr.out["dfs.write_8k_host_ns"], _ = batches(pr.n(1000), nil, func(i int) {
			if err := core.Write(p, ino, off(i), page); err != nil {
				panic(err)
			}
		})
		pr.out["dfs.read_8k_host_ns"], _ = batches(pr.n(1000), nil, func(i int) {
			if data, err := core.Read(p, ino, off(i), pageSize); err != nil || len(data) != pageSize {
				panic(fmt.Sprintf("bench: probe dfs read: %d bytes, %v", len(data), err))
			}
		})
	})
	eng.Shutdown()
}

func (pr *prober) codecProbes() {
	coder, err := ec.New(4, 2)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(buf)
	shards := coder.Split(buf)
	ns, _ := batches(pr.n(20), nil, func(int) {
		if _, err := coder.Encode(shards); err != nil {
			panic(err)
		}
	})
	pr.out["ec.encode_mb_per_s"] = float64(len(buf)) / (1 << 20) / (ns / 1e9)

	// Half random, half zeros: a page the compressor has to both search and shrink.
	page := make([]byte, pageSize)
	copy(page, buf[:pageSize/2])
	ns, _ = batches(pr.n(500), nil, func(int) { xform.LZSS{}.Encode(page) })
	pr.out["xform.lzss_mb_per_s"] = float64(pageSize) / (1 << 20) / (ns / 1e9)
}
