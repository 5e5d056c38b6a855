package tlb

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// HierarchyConfig describes the full data-TLB hierarchy of one core,
// mirroring Table 2 of the paper (Intel Xeon E5-2667 v3).
type HierarchyConfig struct {
	L1D4K Config // L1 D-TLB for 4KB pages
	L1D2M Config // L1 D-TLB for 2MB pages
	L1D1G Config // L1 D-TLB for 1GB pages
	L2    Config // unified L2 TLB (4KB & 2MB; Haswell's STLB holds no 1GB entries)
}

// DefaultHierarchyConfig returns the Table 2 hierarchy:
//
//	L1 D-TLB 4KB: 64 entries, 4-way;  2MB: 32 entries, 4-way;  1GB: 4 entries, 4-way
//	L2 unified (4KB & 2MB): 1024 entries, 8-way
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D4K: Config{Name: "L1D-4K", Entries: 64, Ways: 4},
		L1D2M: Config{Name: "L1D-2M", Entries: 32, Ways: 4},
		L1D1G: Config{Name: "L1D-1G", Entries: 4, Ways: 4},
		L2:    Config{Name: "L2", Entries: 1024, Ways: 8},
	}
}

// Result describes where a translation was found.
type Result int

const (
	// HitL1 means the translation hit in the first-level TLB.
	HitL1 Result = iota
	// HitL2 means it missed L1 but hit the unified second-level TLB.
	HitL2
	// Miss means it missed the whole hierarchy and a page table walk is
	// required.
	Miss
)

func (r Result) String() string {
	switch r {
	case HitL1:
		return "L1 hit"
	case HitL2:
		return "L2 hit"
	case Miss:
		return "miss"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Hierarchy is the per-core data-TLB hierarchy: three split L1 structures
// (one per page size) backed by a unified L2. A lookup probes the L1 for the
// page size the address is currently mapped at, then the L2, and reports
// where it hit. Fills are performed on the way back (L2 then L1), modelling
// an inclusive fill path.
type Hierarchy struct {
	l1       [3]*TLB // indexed by sizeIndex
	l2       *TLB
	accesses uint64
	walks    uint64
}

// NewHierarchy builds the per-core hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		l1: [3]*TLB{
			New(cfg.L1D4K),
			New(cfg.L1D2M),
			New(cfg.L1D1G),
		},
		l2: New(cfg.L2),
	}
}

// Access translates address a, which is currently mapped with page size
// size. It returns where the translation was found. On a full miss the
// caller is responsible for walking the page table and then calling Fill.
//
// An L1 miss leaves the L1 fill victim picked, and an L2 miss the L2 one,
// so the refill on an L2 hit and the Fill after a walk write those ways
// without probing their sets again.
func (h *Hierarchy) Access(a mem.VirtAddr, size mem.PageSize) Result {
	h.accesses++
	si := sizeIndex(size)
	tag := pageTag(a, si)
	l1 := h.l1[si]
	if l1.lookup(tag) {
		return HitL1
	}
	if si != 2 && h.l2.lookup(tag) {
		// Fill into L1 on an L2 hit.
		l1.insert(tag)
		return HitL2
	}
	h.walks++
	return Miss
}

// pageTag returns the way tag of the page holding a at size index si. Page
// shifts are 12, 21 and 30: 12 plus 9 per size step.
func pageTag(a mem.VirtAddr, si int) uint64 {
	return uint64(a)>>(12+9*uint(si))<<classBits | uint64(si+1)
}

// CountL1HitsIndexed records n L1 hits in the L1 for size index si (0 =
// 4KB, 1 = 2MB, 2 = 1GB) on behalf of an external MRU filter (the vmm
// step-level L0 filter), without probing or re-stamping any entry. The
// caller guarantees each counted access would have hit the same
// already-MRU L1 entry, so skipping the scan and the recency refresh is
// invisible to every replacement decision; only the counters the
// experiments report move.
func (h *Hierarchy) CountL1HitsIndexed(si int, n uint64) {
	h.accesses += n
	h.l1[si].CountHit(n)
}

// Fill installs the translation for a at the given page size after a page
// table walk, into both levels.
func (h *Hierarchy) Fill(a mem.VirtAddr, size mem.PageSize) {
	si := sizeIndex(size)
	tag := pageTag(a, si)
	if si != 2 {
		h.l2.insert(tag)
	}
	h.l1[si].insert(tag)
}

// Shootdown invalidates every cached translation overlapping the range, at
// every level and page size, returning the number of entries dropped. This
// models the TLB shootdown the OS performs when it remaps a region (e.g.
// promotion replaces 512 4KB PTEs with one 2MB PMD entry).
func (h *Hierarchy) Shootdown(r mem.Range) int {
	n := 0
	for _, t := range h.l1 {
		n += t.InvalidateRange(r)
	}
	n += h.l2.InvalidateRange(r)
	return n
}

// Flush empties every structure (e.g. on context switch with ASID reuse;
// unused in the default experiments but part of the hardware model).
func (h *Hierarchy) Flush() {
	for _, t := range h.l1 {
		t.Flush()
	}
	h.l2.Flush()
}

// Accesses returns the total translations requested.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// Walks returns the number of accesses that missed the entire hierarchy.
func (h *Hierarchy) Walks() uint64 { return h.walks }

// MissRate returns hierarchy-wide walk rate (paper's "TLB Miss %" /
// "PTW %"): page table walks per access.
func (h *Hierarchy) MissRate() float64 {
	if h.accesses == 0 {
		return 0
	}
	return float64(h.walks) / float64(h.accesses)
}

// L1Misses returns the total first-level misses across the three split L1
// structures — the single source of truth for the L1-miss numerator, so
// end-of-run aggregation and per-core metrics read the same counters.
func (h *Hierarchy) L1Misses() uint64 {
	var n uint64
	for _, t := range h.l1 {
		n += t.Stats().Misses
	}
	return n
}

// L1 returns the L1 TLB for a page size (for stats and tests).
func (h *Hierarchy) L1(size mem.PageSize) *TLB { return h.l1[sizeIndex(size)] }

// L2 returns the unified second-level TLB.
func (h *Hierarchy) L2() *TLB { return h.l2 }

// VisitValid calls fn for every valid entry at every level, tagged with the
// structure's name. Diagnostic iteration for the invariant auditor.
func (h *Hierarchy) VisitValid(fn func(level string, vpn mem.PageNum, size mem.PageSize)) {
	for _, t := range h.l1 {
		name := t.Name()
		t.VisitValid(func(vpn mem.PageNum, size mem.PageSize) { fn(name, vpn, size) })
	}
	h.l2.VisitValid(func(vpn mem.PageNum, size mem.PageSize) { fn(h.l2.Name(), vpn, size) })
}

// Publish adds the hierarchy's counters into s under prefix.
func (h *Hierarchy) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".accesses", float64(h.accesses))
	s.Add(prefix+".walks", float64(h.walks))
	h.l1[0].Publish(s, prefix+".l1d4k")
	h.l1[1].Publish(s, prefix+".l1d2m")
	h.l1[2].Publish(s, prefix+".l1d1g")
	h.l2.Publish(s, prefix+".l2")
}
