package ptw

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pccsim/internal/mem"
)

func TestLevelString(t *testing.T) {
	for _, l := range []Level{PTE, PMD, PUD, PGD} {
		if l.String() == "" {
			t.Errorf("level %d must stringify", int(l))
		}
	}
}

func TestMapWalk4K(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(0x12345000)
	info := tb.Walk(a)
	if info.Mapped {
		t.Fatal("walk of empty table must fault")
	}
	tb.Map(a, mem.Page4K)
	info = tb.Walk(a)
	if !info.Mapped || info.Size != mem.Page4K {
		t.Fatalf("walk = %+v", info)
	}
	if info.Levels != 4 {
		t.Errorf("4KB walk reads 4 levels, got %d", info.Levels)
	}
}

func TestMapWalk2M(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(5 << 21)
	tb.Map(a, mem.Page2M)
	info := tb.Walk(a + 0x1234)
	if !info.Mapped || info.Size != mem.Page2M {
		t.Fatalf("walk = %+v", info)
	}
	if info.Levels != 3 {
		t.Errorf("2MB walk reads 3 levels, got %d", info.Levels)
	}
}

func TestMapWalk1G(t *testing.T) {
	tb := NewTable()
	tb.Map(2<<30, mem.Page1G)
	info := tb.Walk(2<<30 + 12345)
	if !info.Mapped || info.Size != mem.Page1G {
		t.Fatalf("walk = %+v", info)
	}
	if info.Levels != 2 {
		t.Errorf("1GB walk reads 2 levels, got %d", info.Levels)
	}
}

func TestAccessedBitsPrewalkSampling(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(7 << 21)
	tb.Map(a, mem.Page4K)
	tb.Map(a+0x1000, mem.Page4K)

	info := tb.Walk(a)
	if info.PMDWasAccessed {
		t.Error("first walk in region must see cold PMD bit")
	}
	info = tb.Walk(a + 0x1000)
	if !info.PMDWasAccessed {
		t.Error("second walk in region must see warm PMD bit")
	}
	if !info.PUDWasAccessed {
		t.Error("second walk must see warm PUD bit too")
	}
}

func TestMapCollapsesPTEs(t *testing.T) {
	tb := NewTable()
	base := mem.VirtAddr(3 << 21)
	for i := 0; i < 512; i++ {
		tb.Map(base+mem.VirtAddr(i*0x1000), mem.Page4K)
	}
	p4, p2, _ := tb.Counts()
	if p4 != 512 || p2 != 0 {
		t.Fatalf("counts = %d/%d", p4, p2)
	}
	// Promotion: map the whole region huge; the PTE subtree collapses.
	tb.Map(base, mem.Page2M)
	p4, p2, _ = tb.Counts()
	if p4 != 0 || p2 != 1 {
		t.Fatalf("post-collapse counts = %d/%d, want 0/1", p4, p2)
	}
	if s, ok := tb.MappedSize(base + 0x5000); !ok || s != mem.Page2M {
		t.Errorf("MappedSize = %v,%v", s, ok)
	}
}

func TestMapIdempotent(t *testing.T) {
	tb := NewTable()
	tb.Map(0x1000, mem.Page4K)
	tb.Map(0x1000, mem.Page4K)
	p4, _, _ := tb.Counts()
	if p4 != 1 {
		t.Errorf("remap must not double count, got %d", p4)
	}
}

func TestUnmapAndRemapDemotion(t *testing.T) {
	tb := NewTable()
	base := mem.VirtAddr(9 << 21)
	tb.Map(base, mem.Page2M)
	tb.Unmap(base, mem.Page2M)
	if _, ok := tb.MappedSize(base); ok {
		t.Fatal("unmapped region must not resolve")
	}
	// Demotion: remap as base pages.
	for i := 0; i < 512; i++ {
		tb.Map(base+mem.VirtAddr(i*0x1000), mem.Page4K)
	}
	p4, p2, _ := tb.Counts()
	if p4 != 512 || p2 != 0 {
		t.Fatalf("post-demotion counts = %d/%d", p4, p2)
	}
}

func TestUnmapMissingIsNoop(t *testing.T) {
	tb := NewTable()
	tb.Unmap(0x4000, mem.Page4K) // must not panic
	tb.Unmap(2<<21, mem.Page2M)
	p4, p2, p1 := tb.Counts()
	if p4+p2+p1 != 0 {
		t.Error("counts must stay zero")
	}
}

func TestMapConflictPanics(t *testing.T) {
	tb := NewTable()
	tb.Map(0, mem.Page2M)
	defer func() {
		if recover() == nil {
			t.Fatal("mapping 4K under a huge leaf must panic")
		}
	}()
	tb.Map(0x1000, mem.Page4K)
}

func TestMappedSize(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.MappedSize(0x1000); ok {
		t.Error("empty table must not resolve")
	}
	tb.Map(0x1000, mem.Page4K)
	if s, ok := tb.MappedSize(0x1fff); !ok || s != mem.Page4K {
		t.Errorf("= %v,%v", s, ok)
	}
	if _, ok := tb.MappedSize(0x2000); ok {
		t.Error("adjacent page must not resolve")
	}
}

// TestTestAndClearAccessedSampleAndClear pins the software sampling probe:
// a fresh mapping reads cold, a walk sets the PTE bit, the probe reports and
// clears it, and a re-walk sets it again.
func TestTestAndClearAccessedSampleAndClear(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(0x1000)
	tb.Map(a, mem.Page4K)
	b := tb.LeafBlock(a)
	if b == 0 {
		t.Fatal("a 4KB-mapped region must have a PTE block")
	}
	if tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("fresh mapping must be cold")
	}
	tb.Walk(a)
	if !tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("walk must set the PTE accessed bit")
	}
	if tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("the probe must clear the bit")
	}
	tb.Walk(a)
	if !tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("re-walk must re-set the bit")
	}
}

// TestLeafBlockWithoutPTENode: a region with no PTE node — unmapped, mapped
// by a 2MB or 1GB leaf — has the zero Block, which reads "not accessed"; so
// does an unmapped page inside a populated block, and a walk of a neighbour
// does not set it.
func TestLeafBlockWithoutPTENode(t *testing.T) {
	tb := NewTable()
	huge2M := mem.VirtAddr(4 << 21)
	tb.Map(huge2M, mem.Page2M)
	tb.Walk(huge2M)
	huge1G := mem.VirtAddr(3 << 30)
	tb.Map(huge1G, mem.Page1G)
	tb.Walk(huge1G)
	for _, a := range []mem.VirtAddr{9 << 21, 5 << 30, huge2M + 0x3000, huge1G + 7<<21} {
		if b := tb.LeafBlock(a); b != 0 {
			t.Errorf("LeafBlock(%#x) = %d, want the zero Block", uint64(a), b)
		}
		if tb.TestAndClearAccessedIn(0, a) {
			t.Errorf("the zero Block must read not accessed at %#x", uint64(a))
		}
	}
	page := mem.VirtAddr(7<<21 + 0x5000)
	tb.Map(page, mem.Page4K)
	tb.Walk(page)
	hole := page + 0x1000
	tb.Walk(hole)
	if tb.TestAndClearAccessedIn(tb.LeafBlock(hole), hole) {
		t.Error("an unmapped page must read not accessed")
	}
	if !tb.TestAndClearAccessedIn(tb.LeafBlock(page), page) {
		t.Error("the mapped neighbour must read accessed")
	}
}

// mapRegionPerPage is the definition MapRegion4K must match: one Map per
// 4KB page of the region, in address order.
func mapRegionPerPage(tb *Table, base mem.VirtAddr) {
	for i := 0; i < 512; i++ {
		tb.Map(base+mem.VirtAddr(i)<<12, mem.Page4K)
	}
}

func cloneTable(t *testing.T, tb *Table) *Table {
	t.Helper()
	c := NewTable()
	if err := c.SetState(tb.State()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMapRegion4KMatchesPerPageMap: on random tables — partly mapped
// regions with accessed bits set, collapsed regions whose PTE node went to
// the free list, huge leaves elsewhere — MapRegion4K leaves exactly the
// TableState of 512 Map calls: the same node slot (free-list reuse after a
// collapse included), the same counts, the same accessed bits.
func TestMapRegion4KMatchesPerPageMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		region := func() mem.VirtAddr {
			// Eight 2MB regions in two 1GB spans, so PUD and PMD nodes are
			// shared and also created fresh.
			return mem.VirtAddr(rng.Intn(2))<<30 + mem.VirtAddr(rng.Intn(8))<<21
		}
		for i := 0; i < 200; i++ {
			r := region()
			page := r + mem.VirtAddr(rng.Intn(512))<<12
			size, mapped := tb.MappedSize(r)
			huge := mapped && size == mem.Page2M
			switch rng.Intn(5) {
			case 0, 1:
				if !huge {
					tb.Map(page, mem.Page4K)
					if rng.Intn(2) == 0 {
						tb.Walk(page) // a mapped page with its accessed bit set
					}
				}
			case 2:
				tb.Map(r, mem.Page2M) // collapses any PTE node
			case 3:
				tb.Unmap(r, mem.Page2M)
			case 4:
				tb.Walk(page)
			}
		}
		// Remap every region that is not huge (after unmapping half the
		// huge ones, the demotion path), comparing against the reference.
		for i := 0; i < 16; i++ {
			r := mem.VirtAddr(i/8)<<30 + mem.VirtAddr(i%8)<<21
			if size, ok := tb.MappedSize(r); ok && size == mem.Page2M {
				if rng.Intn(2) == 0 {
					continue
				}
				tb.Unmap(r, mem.Page2M)
			}
			want := cloneTable(t, tb)
			mapRegionPerPage(want, r)
			tb.MapRegion4K(r + mem.VirtAddr(rng.Intn(512))<<12)
			if !reflect.DeepEqual(tb.State(), want.State()) {
				t.Fatalf("seed %d region %#x: MapRegion4K state differs from 512 Map calls", seed, uint64(r))
			}
		}
	}
}

// TestMapRegion4KReusesFreedSlot is the demotion sequence spelled out: a
// collapse frees the region's PTE node, and the remap takes that slot back
// from the free list, as the first per-page Map would.
func TestMapRegion4KReusesFreedSlot(t *testing.T) {
	tb := NewTable()
	base := mem.VirtAddr(5 << 21)
	mapRegionPerPage(tb, base)
	slot := tb.LeafBlock(base)
	tb.Map(base, mem.Page2M)
	if len(tb.free) != 1 {
		t.Fatalf("collapse left %d free slots, want 1", len(tb.free))
	}
	tb.Unmap(base, mem.Page2M)
	want := cloneTable(t, tb)
	mapRegionPerPage(want, base)
	tb.MapRegion4K(base)
	if got := tb.LeafBlock(base); got != slot {
		t.Errorf("remap took slot %d, want the freed slot %d", got, slot)
	}
	if !reflect.DeepEqual(tb.State(), want.State()) {
		t.Error("remap state differs from 512 Map calls")
	}
	if p4, p2, _ := tb.Counts(); p4 != 512 || p2 != 0 {
		t.Errorf("counts = %d/%d, want 512/0", p4, p2)
	}
}

// TestMapRegion4KConflictPanics: under a 1GB leaf the remap panics like
// the first per-page Map.
func TestMapRegion4KConflictPanics(t *testing.T) {
	tb := NewTable()
	tb.Map(0, mem.Page1G)
	defer func() {
		if recover() == nil {
			t.Fatal("remapping under a huge leaf must panic")
		}
	}()
	tb.MapRegion4K(3 << 21)
}

func TestWalkerPWCSkipsLevels(t *testing.T) {
	tb := NewTable()
	w := NewWalker()
	a := mem.VirtAddr(0x12345000)
	b := a + 0x1000 // same PMD
	tb.Map(a, mem.Page4K)
	tb.Map(b, mem.Page4K)

	i1 := w.Walk(tb, a)
	if i1.Levels != 4 {
		t.Fatalf("cold walk levels = %d, want 4", i1.Levels)
	}
	i2 := w.Walk(tb, b)
	if i2.Levels != 1 {
		t.Fatalf("PWC-covered walk levels = %d, want 1 (PMD cached)", i2.Levels)
	}
	st := w.Stats()
	if st.Walks != 2 || st.PWCHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if rpw := st.RefsPerWalk(); rpw != 2.5 {
		t.Errorf("refs/walk = %v, want 2.5", rpw)
	}
}

func TestWalkerFaultCounting(t *testing.T) {
	tb := NewTable()
	w := NewWalker()
	info := w.Walk(tb, 0x1000)
	if info.Mapped {
		t.Fatal("unmapped walk must fault")
	}
	if w.Stats().Faults != 1 {
		t.Errorf("faults = %d", w.Stats().Faults)
	}
}

func TestWalkerSizeCounters(t *testing.T) {
	tb := NewTable()
	w := NewWalker()
	// One mapping per 512GB PGD region, so no walk hits the PWC.
	const pgd = mem.VirtAddr(1) << 39
	tb.Map(0, mem.Page4K)
	tb.Map(pgd+1<<21, mem.Page2M)
	tb.Map(2*pgd+1<<30, mem.Page1G)
	w.Walk(tb, 0)
	w.Walk(tb, pgd+1<<21)
	w.Walk(tb, 2*pgd+1<<30)
	st := w.Stats()
	if st.Walks4K != 1 || st.Walks2M != 1 || st.Walks1G != 1 {
		t.Errorf("size counters = %+v", st)
	}
	// No PWC hits: 4+3+2 levels.
	if st.LevelsRead != 9 {
		t.Errorf("levels read = %d, want 9", st.LevelsRead)
	}
}

func TestWalkerInvalidateRange(t *testing.T) {
	tb := NewTable()
	w := NewWalker()
	a := mem.VirtAddr(0x12345000)
	tb.Map(a, mem.Page4K)
	w.Walk(tb, a)
	// Invalidate the covering 2MB region. Like INVLPG, this drops every
	// paging-structure cache entry whose span overlaps the range — the
	// PMD entry and, conservatively, the covering PUD/PGD entries too.
	r := mem.RegionOf(a, mem.Page2M)
	w.InvalidateRange(mem.Range{Start: r.Base, End: r.End()})
	tb.Map(a+0x1000, mem.Page4K)
	info := w.Walk(tb, a+0x1000)
	if info.Levels != 4 {
		t.Errorf("levels = %d, want 4 (all covering PWC entries dropped)", info.Levels)
	}
	// An address in a different 1GB region keeps its own PWC path: walk
	// it twice and confirm the second walk is shortened again.
	far := a + mem.VirtAddr(4<<30)
	tb.Map(far, mem.Page4K)
	tb.Map(far+0x1000, mem.Page4K)
	w.Walk(tb, far)
	if info := w.Walk(tb, far+0x1000); info.Levels != 1 {
		t.Errorf("unrelated region walk levels = %d, want 1", info.Levels)
	}
}

func TestWalkerFlush(t *testing.T) {
	tb := NewTable()
	w := NewWalker()
	a := mem.VirtAddr(0x2000)
	tb.Map(a, mem.Page4K)
	w.Walk(tb, a)
	w.Flush()
	tb.Map(a+0x1000, mem.Page4K)
	info := w.Walk(tb, a+0x1000)
	if info.Levels != 4 {
		t.Errorf("post-flush walk levels = %d, want 4", info.Levels)
	}
}

func TestCountsNeverNegativeProperty(t *testing.T) {
	// Property: random map/unmap/promote sequences keep counts consistent
	// with a shadow model.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		shadow4 := map[mem.VirtAddr]bool{}
		shadow2 := map[mem.VirtAddr]bool{}
		for i := 0; i < 300; i++ {
			region := mem.VirtAddr(rng.Intn(8)) << 21
			page := region + mem.VirtAddr(rng.Intn(512))<<12
			switch rng.Intn(3) {
			case 0: // map 4K if region not huge
				if !shadow2[region] {
					tb.Map(page, mem.Page4K)
					shadow4[page] = true
				}
			case 1: // promote region
				tb.Map(region, mem.Page2M)
				shadow2[region] = true
				for p := range shadow4 {
					if mem.PageBase(p, mem.Page2M) == region {
						delete(shadow4, p)
					}
				}
			case 2: // demote region
				if shadow2[region] {
					tb.Unmap(region, mem.Page2M)
					delete(shadow2, region)
				}
			}
		}
		p4, p2, _ := tb.Counts()
		return p4 == uint64(len(shadow4)) && p2 == uint64(len(shadow2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWalkerStatsString(t *testing.T) {
	w := NewWalker()
	if w.Stats().String() == "" {
		t.Error("stats must stringify")
	}
	if w.Stats().Walks != 0 {
		t.Error("a fresh walker must have zero walks")
	}
}
