package exp

import (
	"fmt"
	"time"

	dpcroot "dpc"
	"dpc/internal/cpu"
	"dpc/internal/dfs"
	"dpc/internal/model"
	"dpc/internal/sim"
	"dpc/internal/workload"
)

// Distributed experiment geometry.
const (
	dfsFiles     = 4
	dfsFileSize  = 16 << 20 // big files for random I/O
	dfsSmallN    = 256      // small-file population
	dfsIOSize    = 8192
	dfsBWThreads = 16
)

// dfsClientWorld wraps one fs-client flavor plus its world.
type dfsClientWorld struct {
	name    string
	eng     *sim.Engine
	hostCPU *cpu.Pool
	// bigIno are the preallocated big files; smallPaths the small files.
	bigIno     []uint64
	smallPaths []string

	create func(p *sim.Proc, tid int, path string) (uint64, error)
	write  func(p *sim.Proc, tid int, ino uint64, off uint64, data []byte) error
	// createWrite is the initial small write after a create; DPC absorbs
	// it in the hybrid cache (write-back), which is where its file-create
	// advantage comes from. Defaults to write.
	createWrite func(p *sim.Proc, tid int, ino uint64, off uint64, data []byte) error
	read        func(p *sim.Proc, tid int, ino uint64, off uint64, n int) error // the bytes are discarded
	lookup      func(p *sim.Proc, tid int, path string) (uint64, error)
	stop        func()
}

// do is the random-I/O body on the big files (direct is ignored: the host
// clients have no buffered path and the DPC flavor's write is direct).
func (w *dfsClientWorld) do(bool) workload.Do {
	return func(p *sim.Proc, tid int, a workload.Access) error {
		ino := w.bigIno[tid%len(w.bigIno)]
		if a.Kind == workload.Write {
			return w.write(p, tid, ino, a.Off, make([]byte, a.Size))
		}
		return w.read(p, tid, ino, a.Off, a.Size)
	}
}

// setup preallocates files big files of fileSize bytes under the name format
// and smallN small files, then settles the world for 10 s of virtual time.
// The DFS namespace is flat and a path's hash picks its home MDS, which
// allocates the inode number, which places the data — so the names are part
// of the world, and one setup serves all three clients.
func (w *dfsClientWorld) setup(name string, files int, fileSize uint64, smallN int) *dfsClientWorld {
	if w.createWrite == nil {
		w.createWrite = w.write
	}
	w.eng.Go("setup", func(p *sim.Proc) {
		chunk := make([]byte, prefillChunk)
		for i := 0; i < files; i++ {
			ino, err := w.create(p, 0, fmt.Sprintf(name, i))
			if err != nil {
				panic(err)
			}
			for off := uint64(0); off < fileSize; off += prefillChunk {
				if err := w.write(p, 0, ino, off, chunk); err != nil {
					panic(err)
				}
			}
			w.bigIno = append(w.bigIno, ino)
		}
		small := make([]byte, dfsIOSize)
		for i := 0; i < smallN; i++ {
			path := fmt.Sprintf("/small/f%04d", i)
			ino, err := w.create(p, 0, path)
			if err != nil {
				panic(err)
			}
			if err := w.write(p, 0, ino, 0, small); err != nil {
				panic(err)
			}
			w.smallPaths = append(w.smallPaths, path)
		}
	})
	w.eng.RunUntil(w.eng.Now() + sim.Time(10*time.Second))
	return w
}

// fig9Setup is the Figure 1/9 population.
func (w *dfsClientWorld) fig9Setup() *dfsClientWorld {
	return w.setup("/big/file%d", dfsFiles, dfsFileSize, dfsSmallN)
}

// dfsHostClient is what the two host-resident clients (dfs.StdClient, and
// dfs.Core run on the host CPU) share.
type dfsHostClient interface {
	Create(p *sim.Proc, path string) (uint64, error)
	Lookup(p *sim.Proc, path string) (uint64, uint64, error)
	Write(p *sim.Proc, ino uint64, off uint64, data []byte) error
	Read(p *sim.Proc, ino uint64, off uint64, n int) ([]byte, error)
}

// newDFSHostWorld builds a host-resident client world, not yet populated:
// the standard NFS client, or with opt the host-side optimized client.
func newDFSHostWorld(opt bool) *dfsClientWorld {
	m := model.NewMachine(model.Default())
	b := dfs.NewBackend(m.Eng, m.Net, dfs.DefaultBackendConfig())
	name, cl := "NFS", dfsHostClient(dfs.NewStdClient(b, m.HostNode, m.HostCPU, dfs.DefaultStdClientConfig()))
	if opt {
		name, cl = "NFS+opt-client", dfs.NewCore(b, m.HostNode, m.HostCPU, dfs.DefaultCoreCosts())
	}
	return &dfsClientWorld{
		name: name, eng: m.Eng, hostCPU: m.HostCPU,
		create: func(p *sim.Proc, tid int, path string) (uint64, error) { return cl.Create(p, path) },
		write: func(p *sim.Proc, tid int, ino uint64, off uint64, data []byte) error {
			return cl.Write(p, ino, off, data)
		},
		read: func(p *sim.Proc, tid int, ino uint64, off uint64, n int) error {
			_, err := cl.Read(p, ino, off, n)
			return err
		},
		lookup: func(p *sim.Proc, tid int, path string) (uint64, error) {
			ino, _, err := cl.Lookup(p, path)
			return ino, err
		},
		stop: m.Eng.Shutdown,
	}
}

func newStdWorld() *dfsClientWorld { return newDFSHostWorld(false).fig9Setup() }
func newOptWorld() *dfsClientWorld { return newDFSHostWorld(true).fig9Setup() }

// newDPCDFSWorld builds the DPC world: the same optimized core, offloaded to
// the DPU behind nvme-fs, with the hybrid cache absorbing buffered writes.
func newDPCDFSWorld(cachePages int) *dfsClientWorld {
	dw := newDPCWorld(func(o *dpcroot.Options) {
		o.EnableKVFS = false
		o.EnableDFS = true
		o.CachePages = cachePages
		// Wider commands so 1 MB sequential I/O does not fragment.
		o.NvmeFS.Queues = 16
		o.NvmeFS.SlotsPerQ = 16
		o.NvmeFS.MaxIO = 256 * 1024
	})
	sys, cl := dw.sys, dw.cl
	files := map[uint64]*dpcroot.File{}
	bufs := readBufs{}
	fileOf := func(ino uint64) *dpcroot.File {
		f, ok := files[ino]
		if !ok {
			panic("dpc: unknown ino")
		}
		return f
	}
	w := &dfsClientWorld{
		name: "NFS+DPC", eng: sys.M.Eng, hostCPU: sys.M.HostCPU,
		create: func(p *sim.Proc, tid int, path string) (uint64, error) {
			f, err := cl.Create(p, tid, path)
			if err != nil {
				return 0, err
			}
			files[f.Ino] = f
			return f.Ino, nil
		},
		write: func(p *sim.Proc, tid int, ino uint64, off uint64, data []byte) error {
			// Direct I/O: EC + DIO run on the DPU, like the opt-client's
			// path runs on the host. (Buffered writes through the hybrid
			// cache complete at host-memory speed as long as the working
			// set fits — see the cache-placement ablation — which would
			// make the big-file comparison trivially unfair.)
			return fileOf(ino).Write(p, tid, off, data, true)
		},
		createWrite: func(p *sim.Proc, tid int, ino uint64, off uint64, data []byte) error {
			// Write-back: the cache absorbs the new file's first bytes;
			// the DPU flushes them asynchronously.
			return fileOf(ino).Write(p, tid, off, data, false)
		},
		read: func(p *sim.Proc, tid int, ino uint64, off uint64, n int) error {
			_, err := fileOf(ino).ReadInto(p, tid, off, bufs.get(tid, n), true)
			return err
		},
		lookup: func(p *sim.Proc, tid int, path string) (uint64, error) {
			f, err := cl.Open(p, tid, path)
			if err != nil {
				return 0, err
			}
			files[f.Ino] = f
			return f.Ino, nil
		},
		stop: dw.stop,
	}
	return w.fig9Setup()
}

// Fig9Point is one (client, case) measurement.
type Fig9Point struct {
	Client    string
	Case      string
	Value     float64 // IOPS or GB/s
	Unit      string
	HostCores float64
}

// Fig9Data runs every Figure 9 case for every client.
func Fig9Data(s Scale) []Fig9Point {
	warm, meas := s.windows()
	const iopsThreads = 64
	var out []Fig9Point
	worlds := []func() *dfsClientWorld{newStdWorld, newOptWorld, func() *dfsClientWorld { return newDPCDFSWorld(8192) }}

	for _, mk := range worlds {
		w := mk()

		measure := func(kase string, threads int, gen workload.Generator, do workload.Do, bw bool) {
			w.hostCPU.Mark()
			res := workload.Run(w.eng, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 11}, gen, do)
			pt := Fig9Point{Client: w.name, Case: kase, HostCores: w.hostCPU.CoresUsed()}
			if bw {
				pt.Value, pt.Unit = res.GBps(), "GB/s"
			} else {
				pt.Value, pt.Unit = res.IOPS(), "IOPS"
			}
			out = append(out, pt)
		}

		// 8K random read / write on big files.
		measure("8K rnd rd", iopsThreads, workload.RandomGen(dfsIOSize, dfsFileSize, 100),
			func(p *sim.Proc, tid int, a workload.Access) error {
				return w.read(p, tid, w.bigIno[tid%len(w.bigIno)], a.Off, a.Size)
			}, false)
		measure("8K rnd wr", iopsThreads, workload.RandomGen(dfsIOSize, dfsFileSize, 0),
			func(p *sim.Proc, tid int, a workload.Access) error {
				return w.write(p, tid, w.bigIno[tid%len(w.bigIno)], a.Off, make([]byte, a.Size))
			}, false)

		// Small-file 8K random read (lookup + read).
		measure("small rnd rd", iopsThreads, workload.RandomGen(dfsIOSize, uint64(dfsSmallN)*dfsIOSize, 100),
			func(p *sim.Proc, tid int, a workload.Access) error {
				path := w.smallPaths[int(a.Off/dfsIOSize)%len(w.smallPaths)]
				ino, err := w.lookup(p, tid, path)
				if err != nil {
					return err
				}
				return w.read(p, tid, ino, 0, dfsIOSize)
			}, false)

		// 8K file creation write.
		created := 0
		measure("8K file cr", iopsThreads, workload.CreateGen(dfsIOSize),
			func(p *sim.Proc, tid int, a workload.Access) error {
				created++
				path := fmt.Sprintf("/new/%s-t%d-i%d", w.name, tid, created)
				ino, err := w.create(p, tid, path)
				if err != nil {
					return err
				}
				return w.createWrite(p, tid, ino, 0, make([]byte, dfsIOSize))
			}, false)

		// Sequential bandwidth.
		measure("1MB seq rd", dfsBWThreads, workload.SequentialGen(1<<20, dfsFileSize, workload.Read),
			func(p *sim.Proc, tid int, a workload.Access) error {
				return w.read(p, tid, w.bigIno[tid%len(w.bigIno)], a.Off, a.Size)
			}, true)
		measure("1MB seq wr", dfsBWThreads, workload.SequentialGen(1<<20, dfsFileSize, workload.Write),
			func(p *sim.Proc, tid int, a workload.Access) error {
				return w.write(p, tid, w.bigIno[tid%len(w.bigIno)], a.Off, make([]byte, a.Size))
			}, true)

		w.stop()
	}
	return out
}

// RunFig9 renders Figure 9.
func RunFig9(s Scale) []*Table {
	pts := Fig9Data(s)
	byCase := map[string]map[string]Fig9Point{}
	var caseOrder []string
	for _, p := range pts {
		if byCase[p.Case] == nil {
			byCase[p.Case] = map[string]Fig9Point{}
			caseOrder = append(caseOrder, p.Case)
		}
		byCase[p.Case][p.Client] = p
	}
	perf := &Table{
		Title:  "Figure 9: performance per client",
		Header: []string{"case", "NFS", "NFS+opt-client", "NFS+DPC", "DPC vs opt"},
	}
	cpu := &Table{
		Title:  "Figure 9: host CPU cores per client",
		Header: []string{"case", "NFS", "NFS+opt-client", "NFS+DPC", "DPC CPU reduction vs opt"},
	}
	for _, kase := range caseOrder {
		std := byCase[kase]["NFS"]
		opt := byCase[kase]["NFS+opt-client"]
		dpcPt := byCase[kase]["NFS+DPC"]
		fmtV := fmtIOPS
		if std.Unit == "GB/s" {
			fmtV = func(v float64) string { return fmtGBps(v) }
		}
		perf.Rows = append(perf.Rows, []string{
			kase, fmtV(std.Value), fmtV(opt.Value), fmtV(dpcPt.Value),
			fmt.Sprintf("%.2fx", dpcPt.Value/opt.Value),
		})
		cpu.Rows = append(cpu.Rows, []string{
			kase, fmtCores(std.HostCores), fmtCores(opt.HostCores), fmtCores(dpcPt.HostCores),
			fmtPct(1 - dpcPt.HostCores/opt.HostCores),
		})
	}
	perf.Notes = append(perf.Notes,
		"paper: opt-client 4-5x NFS IOPS; DPC comparable to opt-client, ~1.4x on 8K rnd wr and file create")
	cpu.Notes = append(cpu.Notes,
		"paper: opt-client 6-15x NFS CPU (~30 cores); DPC ~3.6 cores (~90% reduction vs opt, ~10% above NFS)")
	return []*Table{perf, cpu}
}

// Fig1Data runs the motivation comparison: std vs optimized host client.
func Fig1Data(s Scale) []Fig9Point {
	warm, meas := s.windows()
	const threads = 32
	var out []Fig9Point
	for _, mk := range []func() *dfsClientWorld{newStdWorld, newOptWorld} {
		w := mk()
		for _, kase := range []struct {
			name    string
			readPct int
		}{{"rnd rd", 100}, {"rnd wr", 0}, {"mix 70/30", 70}} {
			w.hostCPU.Mark()
			res := workload.Run(w.eng, workload.Config{Threads: threads, Warmup: warm, Measure: meas, Seed: 3},
				workload.RandomGen(dfsIOSize, dfsFileSize, kase.readPct),
				w.do(true))
			out = append(out, Fig9Point{
				Client: w.name, Case: kase.name, Value: res.IOPS(), Unit: "IOPS",
				HostCores: w.hostCPU.CoresUsed(),
			})
		}
		w.stop()
	}
	return out
}

// RunFig1 renders Figure 1.
func RunFig1(s Scale) []*Table {
	pts := Fig1Data(s)
	t := &Table{
		Title:  "Figure 1: IOPS and CPU cores, standard vs optimized NFS client (32 threads)",
		Header: []string{"workload", "NFS IOPS", "opt IOPS", "speedup", "NFS cores", "opt cores", "CPU ratio"},
	}
	for i := 0; i < 3; i++ {
		std, opt := pts[i], pts[i+3]
		t.Rows = append(t.Rows, []string{
			std.Case, fmtIOPS(std.Value), fmtIOPS(opt.Value),
			fmt.Sprintf("%.1fx", opt.Value/std.Value),
			fmtCores(std.HostCores), fmtCores(opt.HostCores),
			fmt.Sprintf("%.1fx", opt.HostCores/std.HostCores),
		})
	}
	t.Notes = append(t.Notes,
		"paper: optimization improves IOPS ~4x while consuming ~4-6x more CPU cores")
	return []*Table{t}
}
