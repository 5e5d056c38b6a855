package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pccsim/internal/mem"
)

// lookupPage and insertPage probe and fill (vpn, size), as the hierarchy
// does by tag.
func (t *TLB) lookupPage(vpn mem.PageNum, size mem.PageSize) bool { return t.lookup(tagOf(vpn, size)) }
func (t *TLB) insertPage(vpn mem.PageNum, size mem.PageSize)      { t.insert(tagOf(vpn, size)) }

// occupancy counts tl's valid entries.
func occupancy(tl *TLB) int {
	n := 0
	tl.VisitValid(func(mem.PageNum, mem.PageSize) { n++ })
	return n
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []Config{
		{Entries: 0, Ways: 1},
		{Entries: 8, Ways: 0},
		{Entries: 10, Ways: 4}, // not divisible
		{Entries: -4, Ways: 4},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", c)
				}
			}()
			New(c)
		}()
	}
}

func TestLookupMissThenInsertHit(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 8, Ways: 2})
	if tl.lookupPage(42, mem.Page4K) {
		t.Fatal("empty TLB must miss")
	}
	tl.insertPage(42, mem.Page4K)
	if !tl.lookupPage(42, mem.Page4K) {
		t.Fatal("inserted entry must hit")
	}
	st := tl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPageSizeDistinguishesEntries(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 8})
	tl.insertPage(7, mem.Page4K)
	if tl.lookupPage(7, mem.Page2M) {
		t.Error("same vpn at different size must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// Single set of 2 ways: third insert evicts the least recently used.
	tl := New(Config{Entries: 2, Ways: 2})
	tl.insertPage(0, mem.Page4K)
	tl.insertPage(1, mem.Page4K)
	// Touch 0 so 1 becomes LRU.
	if !tl.lookupPage(0, mem.Page4K) {
		t.Fatal("0 must hit")
	}
	tl.insertPage(2, mem.Page4K)
	if tl.lookupPage(1, mem.Page4K) {
		t.Error("1 should have been evicted as LRU")
	}
	if !tl.lookupPage(0, mem.Page4K) || !tl.lookupPage(2, mem.Page4K) {
		t.Error("0 and 2 must be resident")
	}
	if tl.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", tl.Stats().Evictions)
	}
}

func TestInsertDuplicateRefreshes(t *testing.T) {
	tl := New(Config{Entries: 2, Ways: 2})
	tl.insertPage(0, mem.Page4K)
	tl.insertPage(1, mem.Page4K)
	tl.insertPage(0, mem.Page4K) // refresh, not duplicate
	tl.insertPage(2, mem.Page4K) // evicts 1 (LRU), not 0
	if tl.lookupPage(1, mem.Page4K) {
		t.Error("1 should be evicted")
	}
	if !tl.lookupPage(0, mem.Page4K) {
		t.Error("refreshed 0 must survive")
	}
	if occupancy(tl) != 2 {
		t.Errorf("occupancy = %d, want 2", occupancy(tl))
	}
}

func TestSetIndexing(t *testing.T) {
	// 4 sets x 1 way: vpns with different low bits land in different sets.
	tl := New(Config{Entries: 4, Ways: 1})
	for v := mem.PageNum(0); v < 4; v++ {
		tl.insertPage(v, mem.Page4K)
	}
	for v := mem.PageNum(0); v < 4; v++ {
		if !tl.lookupPage(v, mem.Page4K) {
			t.Errorf("vpn %d must be resident (distinct sets)", v)
		}
	}
	// vpn 4 conflicts with vpn 0 (same set) and evicts it.
	tl.insertPage(4, mem.Page4K)
	if tl.lookupPage(0, mem.Page4K) {
		t.Error("conflicting vpn must evict in direct-mapped set")
	}
}

func TestInvalidateRange(t *testing.T) {
	tl := New(Config{Entries: 16, Ways: 16})
	// Insert 4KB pages 0..7 (addresses 0..0x8000).
	for v := mem.PageNum(0); v < 8; v++ {
		tl.insertPage(v, mem.Page4K)
	}
	n := tl.InvalidateRange(mem.Range{Start: 0x2000, End: 0x5000})
	if n != 3 {
		t.Errorf("dropped %d entries, want 3 (pages 2,3,4)", n)
	}
	for v := mem.PageNum(0); v < 8; v++ {
		want := v < 2 || v > 4
		if got := tl.lookupPage(v, mem.Page4K); got != want {
			t.Errorf("page %d residency = %v, want %v", v, got, want)
		}
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 4})
	tl.insertPage(5, mem.Page2M)
	// A single-page shootdown is a range covering exactly that page.
	base := mem.VirtAddr(5 * uint64(mem.Page2M))
	page := mem.Range{Start: base, End: base + mem.VirtAddr(mem.Page2M)}
	if n := tl.InvalidateRange(page); n != 1 {
		t.Fatalf("invalidate dropped %d, want 1", n)
	}
	if n := tl.InvalidateRange(page); n != 0 {
		t.Fatalf("second invalidate dropped %d, want 0 (a no-op)", n)
	}
	if tl.lookupPage(5, mem.Page2M) {
		t.Error("invalidated entry must miss")
	}
}

func TestInvalidateRangePartialPageOverlap(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 4})
	tl.insertPage(0, mem.Page2M) // covers [0, 2MB)
	// Range overlapping only the tail of the 2MB page must still drop it.
	n := tl.InvalidateRange(mem.Range{Start: mem.VirtAddr(mem.Page2M) - 0x1000, End: mem.VirtAddr(mem.Page2M)})
	if n != 1 {
		t.Errorf("dropped %d, want 1", n)
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 2})
	for v := mem.PageNum(0); v < 8; v++ {
		tl.insertPage(v, mem.Page4K)
	}
	if occupancy(tl) == 0 {
		t.Fatal("occupancy must be positive after inserts")
	}
	tl.Flush()
	if occupancy(tl) != 0 {
		t.Error("flush must empty the TLB")
	}
}

func TestStatsMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate must be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
	if s.Accesses() != 4 {
		t.Errorf("accesses = %d", s.Accesses())
	}
}

func TestCapacityProperty(t *testing.T) {
	// Property: occupancy never exceeds capacity, and hits+misses equals
	// lookups issued.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := New(Config{Entries: 16, Ways: 4})
		lookups := 0
		for i := 0; i < 500; i++ {
			v := mem.PageNum(rng.Intn(64))
			if rng.Intn(2) == 0 {
				tl.lookupPage(v, mem.Page4K)
				lookups++
			} else {
				tl.insertPage(v, mem.Page4K)
			}
		}
		st := tl.Stats()
		return occupancy(tl) <= 16 && st.Hits+st.Misses == uint64(lookups)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	tl := New(Config{Entries: 2, Ways: 2})
	tl.insertPage(0, mem.Page4K)
	tl.insertPage(1, mem.Page4K)
	// Probing 0 via Contains must NOT refresh it.
	if !tl.Contains(0, mem.Page4K) {
		t.Fatal("contains must see entry")
	}
	before := tl.Stats()
	tl.insertPage(2, mem.Page4K) // evicts true LRU = 0
	if tl.lookupPage(0, mem.Page4K) {
		t.Error("Contains must not refresh LRU state")
	}
	if tl.Stats().Hits != before.Hits {
		t.Error("Contains must not count as a hit")
	}
}

func TestHierarchyAccessFillPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	a := mem.VirtAddr(0x123456789)
	if got := h.Access(a, mem.Page4K); got != Miss {
		t.Fatalf("first access = %v, want Miss", got)
	}
	h.Fill(a, mem.Page4K)
	if got := h.Access(a, mem.Page4K); got != HitL1 {
		t.Fatalf("post-fill access = %v, want HitL1", got)
	}
	if h.Walks() != 1 || h.Accesses() != 2 {
		t.Errorf("walks=%d accesses=%d", h.Walks(), h.Accesses())
	}
}

func TestHierarchyL2Refill(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Fill 4KB pages until the first one falls out of L1 but stays in L2.
	h.Fill(0, mem.Page4K)
	// 64-entry 4-way L1: flood the set of vpn 0 (same set every 16 vpns).
	for i := 1; i <= 4; i++ {
		h.Fill(addr4K(mem.PageNum(i*16)), mem.Page4K)
	}
	if got := h.Access(0, mem.Page4K); got != HitL2 {
		t.Fatalf("evicted-from-L1 access = %v, want HitL2", got)
	}
	// The L2 hit refills L1.
	if got := h.Access(0, mem.Page4K); got != HitL1 {
		t.Fatalf("after refill = %v, want HitL1", got)
	}
}

func TestHierarchy1GBBypassesL2(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	a := mem.VirtAddr(3 << 30)
	h.Fill(a, mem.Page1G)
	if got := h.Access(a, mem.Page1G); got != HitL1 {
		t.Fatalf("1GB L1 hit expected, got %v", got)
	}
	// Evict from the 4-entry 1GB L1 by filling 4+ more.
	for i := 1; i <= 8; i++ {
		h.Fill(mem.VirtAddr(3+i)<<30, mem.Page1G)
	}
	// Haswell's L2 does not hold 1GB entries: must be a full miss.
	if got := h.Access(a, mem.Page1G); got != Miss {
		t.Fatalf("1GB after L1 eviction = %v, want Miss (no L2 for 1GB)", got)
	}
}

func TestHierarchyShootdown(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	a := mem.VirtAddr(0x200000)
	h.Fill(a, mem.Page4K)
	h.Fill(a, mem.Page4K)
	n := h.Shootdown(mem.Range{Start: a, End: a + 0x1000})
	if n == 0 {
		t.Fatal("shootdown must drop entries from both levels")
	}
	if got := h.Access(a, mem.Page4K); got != Miss {
		t.Errorf("post-shootdown access = %v, want Miss", got)
	}
}

func TestHierarchyMissRate(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Access(0, mem.Page4K) // miss
	h.Fill(0, mem.Page4K)
	h.Access(0, mem.Page4K) // hit
	if got := h.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
	if h = NewHierarchy(DefaultHierarchyConfig()); h.MissRate() != 0 || h.Accesses() != 0 {
		t.Error("a fresh hierarchy must have zero counters")
	}
}

func TestResultString(t *testing.T) {
	if HitL1.String() == "" || HitL2.String() == "" || Miss.String() == "" {
		t.Error("results must stringify")
	}
	if Result(99).String() == "" {
		t.Error("unknown result must stringify")
	}
}

// addr4K converts a 4KB page number back to an address (test helper).
func addr4K(v mem.PageNum) mem.VirtAddr { return mem.VirtAddr(uint64(v) << 12) }

func TestHierarchyFillThenHitProperty(t *testing.T) {
	// Property: any address filled at any size hits L1 immediately after,
	// and misses after a shootdown of its page.
	f := func(raw uint64, pick uint8) bool {
		sizes := []mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G}
		size := sizes[int(pick)%3]
		a := mem.VirtAddr(raw % (1 << 40))
		h := NewHierarchy(DefaultHierarchyConfig())
		h.Fill(a, size)
		if h.Access(a, size) != HitL1 {
			return false
		}
		base := mem.PageBase(a, size)
		h.Shootdown(mem.Range{Start: base, End: base + mem.VirtAddr(uint64(size))})
		return h.Access(a, size) == Miss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyAccessCountingProperty(t *testing.T) {
	// Property: accesses = L1 hits + L2 hits + walks, always.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHierarchy(DefaultHierarchyConfig())
		var l1, l2, walks uint64
		for i := 0; i < 2000; i++ {
			a := mem.VirtAddr(rng.Intn(4096)) << 12
			switch h.Access(a, mem.Page4K) {
			case HitL1:
				l1++
			case HitL2:
				l2++
			default:
				walks++
				h.Fill(a, mem.Page4K)
			}
		}
		return h.Accesses() == l1+l2+walks && h.Walks() == walks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOnEvictHookFires(t *testing.T) {
	tl := New(Config{Entries: 2, Ways: 2})
	var evicted []mem.PageNum
	tl.OnEvict = func(vpn mem.PageNum, size mem.PageSize) {
		evicted = append(evicted, vpn)
	}
	tl.insertPage(0, mem.Page4K)
	tl.insertPage(1, mem.Page4K)
	tl.insertPage(2, mem.Page4K) // evicts 0 (LRU)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Errorf("evictions = %v, want [0]", evicted)
	}
	// Invalidation must NOT fire the hook (only capacity replacement).
	tl.InvalidateRange(mem.Range{Start: 0x1000, End: 0x2000})
	if len(evicted) != 1 {
		t.Error("invalidate must not fire OnEvict")
	}
}
