package vmm

import (
	"pccsim/internal/mem"
	"pccsim/internal/metrics"
)

// 1GB promotion support (§3.2.3): the OS may collapse a 1GB-aligned virtual
// region — currently mapped as 4KB and/or 2MB pages — into one giant page,
// when the 1GB PCC indicates the region still walks heavily at 2MB
// granularity.

// regionEligible1G reports whether the 1GB region containing a lies fully
// within one VMA.
func (p *Process) regionEligible1G(a mem.VirtAddr) (mem.Region, *vma, bool) {
	r := mem.RegionOf(a, mem.Page1G)
	v := p.vmaOf(r.Base)
	if v == nil || r.End() > v.r.End || r.Base < v.r.Start {
		return r, nil, false
	}
	return r, v, true
}

// Promote1G promotes the 1GB region containing addr in process p: allocates
// a physical 1GB window (compacting if needed), maps the region as one 1GB
// leaf absorbing any 2MB mappings inside, shoots down, and charges costs.
// The paper's rule for *when* lives in the OS policy; this is the
// mechanism.
func (m *Machine) Promote1G(p *Process, addr mem.VirtAddr) error {
	r, v, ok := p.regionEligible1G(addr)
	if !ok {
		return promoteErr(PromoteVMABoundary, "1GB region spans VMA boundary")
	}
	if _, mapped := p.huge1G[r.Base]; mapped {
		return promoteErr(PromoteAlreadyHuge, "already 1GB")
	}
	// Count what is currently mapped inside (pricing the copy).
	mapped4k, huge := p.mappedPagesIn(v, r)
	if mapped4k == 0 && huge == 0 {
		return promoteErr(PromoteUntouched, "region untouched")
	}
	migrated, allocOK := m.phys.AllocGiga()
	if !allocOK {
		m.PromotionFailures++
		return promoteErr(PromoteNoPhysicalBlock, "no physical 1GB window available")
	}
	// The region's 2MB leaves are absorbed: their data moves into the new
	// window, so their blocks go back to the pool.
	for range p.map1G(v, r, m.accessCount) {
		m.phys.FreeHuge()
	}

	// mappedPagesIn counts 4KB pages in both buckets, so the copy work is
	// simply the populated pages regardless of their current mapping size.
	work := float64(mapped4k+huge)*metrics.PromoteCopyPer4K +
		float64(migrated)*metrics.CompactPer4K
	m.BackgroundCycles += work
	m.chargeAll(metrics.PromoteFixed + work*asyncVisibleFrac)

	p.Promotions1G++
	if migrated > 0 {
		m.events.Recordf(m.accessCount, "compaction", "proc=%s migrated=%d (promote1g)", p.Name, migrated)
	}
	m.events.Recordf(m.accessCount, "promote1g", "proc=%s base=%#x", p.Name, uint64(r.Base))

	m.shootdownAll(m.accessCount, mem.Range{Start: r.Base, End: r.End()})
	return nil
}

// HugePages1G returns the number of live 1GB mappings in p.
func (p *Process) HugePages1G() int { return len(p.huge1G) }
