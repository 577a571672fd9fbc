package exp

import (
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// Reference is one run of the reference workload: the PCIe traffic of the
// two 8 KB walks and the cached mix's final virtual time.
type Reference struct {
	Nvme, Virtio Walk
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
	if ref.Nvme, err = NvmeWalk(o, 8192, StoreSSD); err != nil {
		return ref, err
	}
	wd, rd := ref.Nvme.DMAs()
	o.Counter("trace.nvmefs.write.dmas").Add(wd)
	o.Counter("trace.nvmefs.read.dmas").Add(rd)
	if ref.Virtio, err = VirtioWalk(o, 8192, StoreSSD); err != nil {
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
