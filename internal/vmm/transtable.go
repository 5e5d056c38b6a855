package vmm

import (
	"pccsim/internal/mem"
)

// transTable is a core's persistent software translation table: a
// direct-mapped, generation-validated cache of the last translation the
// core performed per L1 TLB set, for both the 4KB and the 2MB size class.
// It is the widened, persistent form of the step-level L0 filter (the
// single-entry register line on Core remains line 0 in front of it) and is
// the Victima-inspired move of backing translation reach with a
// cache-resident software structure instead of re-running the TLB pipeline.
//
// Soundness rests on one invariant: every full translation leaves its entry
// as the most-recently-used way of its L1 TLB set, and the only event that
// can displace that recency is another full translation that overwrites the
// same table slot (slots are indexed exactly like the L1 set index, one per
// set). A slot match therefore proves the translation is still the MRU way
// of its set — a guaranteed L1 hit — and skipping the recency re-stamp of
// an already-MRU entry changes no replacement decision, so counting the hit
// without probing keeps results bit-identical. The table survives across
// steps, segments and Run calls; it is invalidated in O(1) by bumping gen
// (never a clear loop) on any shootdown, demotion, translation flush or
// snapshot restore, so no slot outlives the TLB entry it mirrors.
//
// Slot keying per class:
//   - 4K: the exact 4KB virtual page number, one slot per L1-4K set.
//   - 2M: the 2MB huge-page number (addr>>21), one slot per L1-2M set. A
//     2M hit still serves a *different* 4KB page than the arming access, so
//     the hit path must mark the page touched (the bloat metric depends on
//     per-4KB touched bits); the cached cost is safe because the NUMA
//     penalty is constant within a 2MB region (placement is per region) and
//     the arming access already performed the region's first-touch
//     placement. noteUse2M is only recorded on L1-miss paths, so a
//     filter-served L1 hit correctly skips it.
//
// 1GB translations keep only the register line: they would need yet another
// slot array, and the workloads that reach 1GB mappings either run inside
// one page (register line suffices) or never repeat (no slot helps).
type transTable struct {
	slots4K []transSlot
	slots2M []transSlot
	mask4K  uint64 // sets-1 for power-of-two set counts, else 0
	sets4K  uint64
	mask2M  uint64
	sets2M  uint64
	gen     uint32
}

// transSlot is one entry of the translation table. page is the exact 4KB
// page number (4K class) or 2MB huge-page number (2M class) of the arming
// access, cost its base (no-TLB-miss) cycles-per-access including any NUMA
// penalty, proc the owning process ID (stored by value so arming incurs no
// write barrier), and gen the table generation at arming time — stale
// generations are invalid, which is what makes invalidation O(1).
type transSlot struct {
	page mem.PageNum
	cost float64
	proc int32
	gen  uint32
}

// newTransTable sizes the table to the core's L1 TLB geometry: one slot per
// L1-4K set and one per L1-2M set.
func newTransTable(sets4K, sets2M int) transTable {
	t := transTable{
		slots4K: make([]transSlot, sets4K),
		slots2M: make([]transSlot, sets2M),
		sets4K:  uint64(sets4K),
		sets2M:  uint64(sets2M),
		gen:     1,
	}
	if sets4K&(sets4K-1) == 0 {
		t.mask4K = uint64(sets4K - 1)
	}
	if sets2M&(sets2M-1) == 0 {
		t.mask2M = uint64(sets2M - 1)
	}
	return t
}

// idx4K mirrors the L1-4K TLB's set indexing (tlb.TLB.setBase).
func (t *transTable) idx4K(vpn mem.PageNum) uint64 {
	if m := t.mask4K; m != 0 || t.sets4K == 1 {
		return uint64(vpn) & m
	}
	return uint64(vpn) % t.sets4K
}

// idx2M mirrors the L1-2M TLB's set indexing (tlb.TLB.setBase).
func (t *transTable) idx2M(hpn mem.PageNum) uint64 {
	if m := t.mask2M; m != 0 || t.sets2M == 1 {
		return uint64(hpn) & m
	}
	return uint64(hpn) % t.sets2M
}

// invalidate drops every slot in O(1) by bumping the generation. On the
// (practically unreachable) 32-bit wrap the slots are cleared physically so
// a slot armed 2^32 invalidations ago can never revalidate.
func (t *transTable) invalidate() {
	t.gen++
	if t.gen == 0 {
		for i := range t.slots4K {
			t.slots4K[i] = transSlot{}
		}
		for i := range t.slots2M {
			t.slots2M[i] = transSlot{}
		}
		t.gen = 1
	}
}
