package exp

import (
	"dpc/internal/obs"
	"dpc/internal/sim"
)

// ProfiledReference runs the profiled reference workload — the paper's
// Figure 2(b)/4 8 KB walks on both transports, backed by a real simulated
// SSD so the breakdown shows the story quantitatively (nvme-fs ops are
// SSD-service-bound while virtio-fs carries a strictly higher DMA+wait
// share), then the cached KVFS mix exercising the full client → nvme-fs →
// dispatch span tree — and returns the obs handle plus the final virtual
// time. dpcbench -prof-out renders this run; the exp tests assert the
// transport comparison and the attribution invariant over it. Profiling is
// enabled before any machine exists: components latch the profiling handle
// at construction.
func ProfiledReference() (*obs.Obs, sim.Time, error) {
	o := obs.New()
	o.EnableProfiling()
	if _, err := NvmeWalk(o, 8192, true); err != nil {
		return nil, 0, err
	}
	if _, err := VirtioWalk(o, 8192, true); err != nil {
		return nil, 0, err
	}
	now, err := CachedMix(o)
	return o, now, err
}
