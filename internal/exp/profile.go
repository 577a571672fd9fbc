package exp

import (
	"fmt"
	"math/rand"
	"time"

	dpcroot "dpc"
	"dpc/internal/obs"
	"dpc/internal/sim"
	"dpc/internal/world"
)

// Reference is one run of the reference workload: the PCIe traffic of the
// two 8 KB walks and the cached mix's final virtual time.
type Reference struct {
	Nvme, Virtio world.Walk
	Now          sim.Time
}

// ProfiledReference runs the reference workload over hub o (nil runs it
// unobserved) — the paper's Figure 2(b)/4 8 KB walks on both transports,
// backed by a real simulated SSD so the breakdown shows the story
// quantitatively (nvme-fs ops are SSD-service-bound while virtio-fs carries
// a strictly higher DMA+wait share), then the cached KVFS mix exercising the
// full client → nvme-fs → dispatch span tree. It records each walk's DMA
// counts as trace.<transport>.<op>.dmas (DMAs only: the doorbell MMIO is
// tallied under pcie.link.mmios) and the mix's cache.host.hit_ratio on o.
// dpcbench renders this run as the metrics, trace and profile artifacts;
// the exp tests assert the transport comparison, the attribution invariant
// and that observing it changes nothing.
func ProfiledReference(o *obs.Obs) (Reference, error) {
	var ref Reference
	var err error
	if ref.Nvme, err = world.NvmeWalk(o, 8192, world.StoreSSD); err != nil {
		return ref, err
	}
	wd, rd := ref.Nvme.DMAs()
	o.Counter("trace.nvmefs.write.dmas").Add(wd)
	o.Counter("trace.nvmefs.read.dmas").Add(rd)
	if ref.Virtio, err = world.VirtioWalk(o, 8192, world.StoreSSD); err != nil {
		return ref, err
	}
	wd, rd = ref.Virtio.DMAs()
	o.Counter("trace.virtiofs.write.dmas").Add(wd)
	o.Counter("trace.virtiofs.read.dmas").Add(rd)
	if ref.Now, err = CachedMix(o); err != nil {
		return ref, err
	}
	reg := o.Registry()
	hits := reg.CounterValue("cache.host.hits")
	if total := hits + reg.CounterValue("cache.host.misses"); total > 0 {
		o.Gauge("cache.host.hit_ratio").Set(float64(hits) / float64(total))
	}
	return ref, nil
}

// CachedMix runs the buffered KVFS reference mix on a full system: one
// warm-up write pass populating the hybrid cache, two read passes that
// mostly hit, an fsync through the flush path, then a direct write whose
// buffered read-back misses so the DPU fills pages. Returns the final
// virtual time.
func CachedMix(o *obs.Obs) (sim.Time, error) {
	sys := world.NewSystem(func(opts *dpcroot.Options) { opts.Model.Obs = o })
	cl := sys.KVFSClient()
	payload := make([]byte, 256*1024)
	rand.New(rand.NewSource(42)).Read(payload)
	dst := make([]byte, len(payload))
	mix := func(p *sim.Proc) error {
		f, err := cl.Create(p, 0, "/bench.dat")
		if err != nil {
			return err
		}
		if err := f.Write(p, 0, 0, payload, false); err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := f.ReadInto(p, 0, 0, dst, false); err != nil {
				return err
			}
		}
		if err := f.Sync(p, 0); err != nil {
			return err
		}
		f2, err := cl.Create(p, 0, "/cold.dat")
		if err != nil {
			return err
		}
		if err := f2.Write(p, 0, 0, payload, true); err != nil {
			return err
		}
		_, err = f2.ReadInto(p, 0, 0, dst, false)
		return err
	}
	var err error
	sys.Go(func(p *sim.Proc) { err = mix(p) })
	sys.RunFor(time.Second)
	now := sys.Now()
	sys.Shutdown()
	if err != nil {
		return now, fmt.Errorf("cached mix: %w", err)
	}
	return now, nil
}
