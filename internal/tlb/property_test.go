package tlb

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
)

// TestPropertyShootdownLeavesNoStaleEntry drives a full hierarchy with
// random fills at every page size, shoots down random ranges, and verifies
// via VisitValid that no surviving entry at any level/set/way overlaps a
// shot-down range — the invariant the machine's remap paths depend on.
func TestPropertyShootdownLeavesNoStaleEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G}
	for trial := 0; trial < 50; trial++ {
		h := NewHierarchy(DefaultHierarchyConfig())
		// Populate with clustered random translations so sets collide.
		for i := 0; i < 2000; i++ {
			size := sizes[rng.Intn(len(sizes))]
			a := mem.VirtAddr(rng.Uint64() % (1 << 40))
			h.Fill(mem.PageBase(a, size), size)
		}
		// Shoot down a random 2MB..64MB range.
		start := mem.PageBase(mem.VirtAddr(rng.Uint64()%(1<<40)), mem.Page2M)
		length := mem.VirtAddr(uint64(1+rng.Intn(32)) << 21)
		r := mem.Range{Start: start, End: start + length}
		h.Shootdown(r)

		h.VisitValid(func(level string, vpn mem.PageNum, size mem.PageSize) {
			base := mem.VirtAddr(uint64(vpn) << size.Shift())
			pr := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(size))}
			if pr.Overlaps(r) {
				t.Fatalf("trial %d: stale %v entry %#x (%v) survived shootdown of %#x-%#x",
					trial, size, base, level, r.Start, r.End)
			}
		})
	}
}

// TestPropertyShootdownPartialOverlap pins the subtle case: a huge entry
// whose base lies before the shot range but whose span reaches into it must
// also be invalidated.
func TestPropertyShootdownPartialOverlap(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	base := mem.VirtAddr(1) << 30
	h.Fill(base, mem.Page2M)
	// Shoot down only the second half of the 2MB page.
	h.Shootdown(mem.Range{Start: base + 1<<20, End: base + 2<<20})
	if h.l1[sizeIndex(mem.Page2M)].Contains(mem.PageNumber(base, mem.Page2M), mem.Page2M) ||
		h.l2.Contains(mem.PageNumber(base, mem.Page2M), mem.Page2M) {
		t.Fatal("2MB entry partially covered by the range must be invalidated")
	}
}
