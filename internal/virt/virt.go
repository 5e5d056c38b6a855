// Package virt models virtualized address translation (§5.4.3 of the
// paper): a guest OS translates guest-virtual to guest-physical through its
// own page table, and the hypervisor translates guest-physical to
// host-physical through a second one. Hardware TLBs cache the combined
// guest-virtual→host-physical mapping at the *smaller* of the two page
// sizes, so a 2MB guest page backed by 4KB host pages still occupies 512
// TLB entries — the paper's point that the guest OS and hypervisor must
// promote together, coordinated by a hypercall, for huge pages to pay off
// in a VM.
//
// A nested ("two-dimensional") page walk is far more expensive than a
// native one: each of the guest walk's references is itself a
// guest-physical address that must be translated through the host table,
// giving up to gL*hL + gL + hL references for gL/hL-level tables (24 for
// 4-level/4-level on x86).
package virt

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/pcc"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// Machine is one virtualized CPU: the Table 2 TLB hierarchy (caching
// combined translations) over a nested translation, priced by the metrics
// cost model at metrics.BaseCPA cycles per access. Guest-physical addresses
// equal guest-virtual addresses here (an identity pseudo-physical layout),
// which loses no generality for TLB behaviour: only the *page sizes* of the
// two mappings matter. So both page tables reduce to arrays over the
// guest's one range: the size of the mapping covering each 4KB page in each
// dimension, and the guest's PMD accessed bits, which its PCC's cold-miss
// filter reads. Nothing reads the host's accessed bits, so they are not
// modelled.
type Machine struct {
	tlb *tlb.Hierarchy
	r   mem.Range // the guest range
	// guest and host hold, per 4KB page of r, the size of the mapping that
	// covers it guest-virtual -> guest-physical and guest-physical ->
	// host-physical; 0 is unmapped.
	guest []mem.PageSize
	host  []mem.PageSize
	// guestPMD is the guest table's PMD accessed bit of each 2MB region r
	// reaches, from the one holding r.Start.
	guestPMD []bool
	// gpcc is the guest-visible 128-entry promotion candidate cache
	// tracking guest-virtual 2MB regions (the paper's design: PCC entries
	// tagged guest vs host, the guest portion surfaced to the guest OS).
	gpcc *pcc.PCC

	Cycles     float64
	Accesses   uint64
	Walks      uint64
	NestedRefs uint64
	Faults     uint64
}

// NewMachine builds an empty virtualized machine whose guest runs in the
// page-aligned range r; Step panics on an address outside it.
func NewMachine(r mem.Range) *Machine {
	if r.End <= r.Start || !mem.Aligned(r.Start, mem.Page4K) || !mem.Aligned(r.End, mem.Page4K) {
		panic(fmt.Sprintf("virt: guest range %#x-%#x is empty or not page aligned", uint64(r.Start), uint64(r.End)))
	}
	return &Machine{
		tlb:      tlb.NewHierarchy(tlb.DefaultHierarchyConfig()),
		r:        r,
		guest:    make([]mem.PageSize, r.Len()>>12),
		host:     make([]mem.PageSize, r.Len()>>12),
		guestPMD: make([]bool, uint64(r.End-1)>>21-uint64(r.Start)>>21+1),
		gpcc:     pcc.New(pcc.DefaultConfig2M()),
	}
}

// GuestPCC exposes the guest candidate cache (what the guest OS reads).
func (m *Machine) GuestPCC() *pcc.PCC { return m.gpcc }

// effectiveSize returns the page size the TLB can cache for a combined
// translation: the smaller of the guest and host mapping sizes.
func effectiveSize(g, h mem.PageSize) mem.PageSize {
	if g < h {
		return g
	}
	return h
}

// sizes returns the current guest and host mapping sizes for gva, faulting
// in 4KB mappings on first touch.
func (m *Machine) sizes(gva mem.VirtAddr) (g, h mem.PageSize) {
	i := uint64(gva-m.r.Start) >> 12
	if m.guest[i] == 0 {
		m.Faults++
		m.Cycles += metrics.FaultBase
		m.guest[i] = mem.Page4K
	}
	// Identity pseudo-physical: the host maps the same numeric address.
	if m.host[i] == 0 {
		m.Cycles += metrics.FaultBase
		m.host[i] = mem.Page4K
	}
	return m.guest[i], m.host[i]
}

// pmdSlot is the index in guestPMD of the 2MB region containing gva.
func (m *Machine) pmdSlot(gva mem.VirtAddr) uint64 {
	return uint64(gva)>>21 - uint64(m.r.Start)>>21
}

// guestLevels returns the walk depth for a guest mapping size.
func guestLevels(s mem.PageSize) int {
	switch s {
	case mem.Page4K:
		return 4
	case mem.Page2M:
		return 3
	default:
		return 2
	}
}

// Step simulates one guest memory access.
func (m *Machine) Step(gva mem.VirtAddr) {
	m.Accesses++
	gs, hs := m.sizes(gva)
	eff := effectiveSize(gs, hs)

	cost := metrics.BaseCPA
	switch m.tlb.Access(gva, eff) {
	case tlb.HitL1:
	case tlb.HitL2:
		cost += metrics.L2TLBHit
	default:
		// Two-dimensional walk: every guest-table reference is itself
		// translated through the host table, plus the final host walk of
		// the leaf guest-physical address.
		m.Walks++
		gL, hL := guestLevels(gs), guestLevels(hs)
		refs := gL*hL + gL + hL
		m.NestedRefs += uint64(refs)
		// The guest walk samples its PMD accessed bit before setting it:
		// the guest PCC's cold-miss filter records only regions already
		// warm. (The guest maps no 1GB pages, so every guest walk reads a
		// PMD entry.)
		pmd := &m.guestPMD[m.pmdSlot(gva)]
		warm := *pmd
		*pmd = true
		cost += metrics.WalkBase + float64(refs)*metrics.WalkRef
		m.tlb.Fill(gva, eff)
		if warm {
			m.gpcc.Record(gva)
		}
	}
	m.Cycles += cost
}

// Run drains a stream through the machine.
func (m *Machine) Run(s trace.Stream) {
	for {
		a, ok := s.Next()
		if !ok {
			return
		}
		m.Step(a.Addr)
	}
}

// PromoteGuest2M collapses the guest mapping of the 2MB region at base —
// what the guest OS alone can do. Without hypervisor cooperation the TLB
// still caches 4KB combined entries. The region's guest PMD accessed bit
// starts clear.
func (m *Machine) PromoteGuest2M(base mem.VirtAddr) error {
	if err := m.map2M("guest", m.guest, base); err != nil {
		return err
	}
	m.guestPMD[m.pmdSlot(base)] = false
	m.shootdown(mem.PageBase(base, mem.Page2M))
	return nil
}

// PromoteHost2M collapses the hypervisor's mapping of the guest-physical
// 2MB region at base — the hypercall-triggered half of the coordination.
func (m *Machine) PromoteHost2M(base mem.VirtAddr) error {
	if err := m.map2M("host", m.host, base); err != nil {
		return err
	}
	m.shootdown(mem.PageBase(base, mem.Page2M))
	return nil
}

// map2M maps the 2MB region containing base as one 2MB page in dim (m.guest
// or m.host), refusing a region that is already huge there or not inside
// the guest range.
func (m *Machine) map2M(name string, dim []mem.PageSize, base mem.VirtAddr) error {
	base = mem.PageBase(base, mem.Page2M)
	if base < m.r.Start || base+mem.VirtAddr(mem.Page2M) > m.r.End {
		return fmt.Errorf("virt: %s region %#x is not inside the guest range", name, uint64(base))
	}
	i := uint64(base-m.r.Start) >> 12
	if dim[i] == mem.Page2M {
		return fmt.Errorf("virt: %s region %#x already huge", name, uint64(base))
	}
	pages := dim[i : i+mem.Page2M.BasePagesPer()]
	for j := range pages {
		pages[j] = mem.Page2M
	}
	return nil
}

// PromoteBoth2M performs the coordinated promotion the paper prescribes:
// guest promotion followed by a hypercall promoting the host mapping.
func (m *Machine) PromoteBoth2M(base mem.VirtAddr) error {
	if err := m.PromoteGuest2M(base); err != nil {
		return err
	}
	return m.PromoteHost2M(base)
}

func (m *Machine) shootdown(base mem.VirtAddr) {
	r := mem.Range{Start: base, End: base + mem.VirtAddr(mem.Page2M)}
	m.tlb.Shootdown(r)
	m.gpcc.InvalidateRange(r)
	m.Cycles += metrics.PromoteFixed
}

// PTWRate returns walks per access.
func (m *Machine) PTWRate() float64 {
	if m.Accesses == 0 {
		return 0
	}
	return float64(m.Walks) / float64(m.Accesses)
}

// RefsPerWalk returns the average nested-walk memory references — the
// virtualization tax (native 4-level walks need ≤4).
func (m *Machine) RefsPerWalk() float64 {
	if m.Walks == 0 {
		return 0
	}
	return float64(m.NestedRefs) / float64(m.Walks)
}
