package ptw

import (
	"reflect"
	"testing"

	"pccsim/internal/mem"
)

func TestWalkerPWCSkipsLevels(t *testing.T) {
	w := NewWalker()
	a := mem.VirtAddr(0x12345000)
	b := a + 0x1000 // same PMD

	if l := w.Walk(a, mem.Page4K); l != 4 {
		t.Fatalf("cold walk levels = %d, want 4", l)
	}
	if l := w.Walk(b, mem.Page4K); l != 1 {
		t.Fatalf("PWC-covered walk levels = %d, want 1 (PMD cached)", l)
	}
	st := w.Stats()
	if st.Walks != 2 || st.PWCHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if rpw := st.RefsPerWalk(); rpw != 2.5 {
		t.Errorf("refs/walk = %v, want 2.5", rpw)
	}
}

// TestWalkerPWCNeverSkipsLeaf: a cached entry at or below the leaf's level
// does not shorten the walk, so every walk reads at least its leaf — a
// cached PMD entry skips nothing above a 2MB leaf, a cached PUD entry
// nothing above a 1GB one.
func TestWalkerPWCNeverSkipsLeaf(t *testing.T) {
	w := NewWalker()
	a := mem.VirtAddr(3<<30 + 5<<21)
	w.Walk(a, mem.Page4K) // caches the PGD, PUD and PMD entries above a
	if l := w.Walk(a, mem.Page2M); l != 1 {
		t.Errorf("2MB walk under cached PMD and PUD entries reads %d levels, want 1", l)
	}
	if l := w.Walk(a, mem.Page1G); l != 1 {
		t.Errorf("1GB walk under cached PUD and PGD entries reads %d levels, want 1", l)
	}
	st := w.Stats()
	if st.Walks != 3 || st.PWCHits != 2 || st.LevelsRead != 6 {
		t.Errorf("stats = %+v, want 3 walks, 2 PWC hits, 6 levels", st)
	}
}

func TestWalkerSizeCounters(t *testing.T) {
	w := NewWalker()
	// One walk per 512GB PGD region, so no walk hits the PWC.
	const pgd = mem.VirtAddr(1) << 39
	w.Walk(0, mem.Page4K)
	w.Walk(pgd+1<<21, mem.Page2M)
	w.Walk(2*pgd+1<<30, mem.Page1G)
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
	w := NewWalker()
	a := mem.VirtAddr(0x12345000)
	w.Walk(a, mem.Page4K)
	// Invalidate the covering 2MB region. Like INVLPG, this drops every
	// paging-structure cache entry whose span overlaps the range — the
	// PMD entry and, conservatively, the covering PUD/PGD entries too.
	r := mem.RegionOf(a, mem.Page2M)
	w.InvalidateRange(mem.Range{Start: r.Base, End: r.End()})
	if l := w.Walk(a+0x1000, mem.Page4K); l != 4 {
		t.Errorf("levels = %d, want 4 (all covering PWC entries dropped)", l)
	}
	// An address in a different 1GB region keeps its own PWC path: walk
	// it twice and confirm the second walk is shortened again.
	far := a + mem.VirtAddr(4<<30)
	w.Walk(far, mem.Page4K)
	if l := w.Walk(far+0x1000, mem.Page4K); l != 1 {
		t.Errorf("unrelated region walk levels = %d, want 1", l)
	}
}

func TestWalkerFlush(t *testing.T) {
	w := NewWalker()
	a := mem.VirtAddr(0x2000)
	w.Walk(a, mem.Page4K)
	w.Flush()
	if l := w.Walk(a+0x1000, mem.Page4K); l != 4 {
		t.Errorf("post-flush walk levels = %d, want 4", l)
	}
}

// TestWalkerStateRoundTrip: a walker restored from another's state walks
// on exactly as the original does, and a state for another PWC geometry is
// refused.
func TestWalkerStateRoundTrip(t *testing.T) {
	w := NewWalker()
	for i := 0; i < 40; i++ {
		w.Walk(mem.VirtAddr(i%7)<<30+mem.VirtAddr(i%37)<<21+mem.VirtAddr(i)<<12, mem.Page4K)
	}
	c := NewWalker()
	if err := c.SetState(w.State()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a := mem.VirtAddr(i%5)<<30 + mem.VirtAddr(i%41)<<21
		if lw, lc := w.Walk(a, mem.Page4K), c.Walk(a, mem.Page4K); lw != lc {
			t.Fatalf("walk %d: restored walker read %d levels, original %d", i, lc, lw)
		}
	}
	if !reflect.DeepEqual(w.State(), c.State()) {
		t.Error("restored walker's state diverged")
	}
	bad := w.State()
	bad.PMD.Tags = bad.PMD.Tags[1:]
	if err := c.SetState(bad); err == nil {
		t.Error("a PMD cache state of the wrong size must be refused")
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
