package physmem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{TotalBytes: 0},
		{TotalBytes: 1 << 20}, // not a 2MB multiple
		{TotalBytes: 3 << 20}, // not a 2MB multiple... 3MB
	}
	for _, c := range bad {
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

func TestPristineAllocFree(t *testing.T) {
	m := New(Config{TotalBytes: 8 << 21}) // 8 blocks
	if m.Blocks() != 8 || m.FreeBlocks() != 8 {
		t.Fatalf("blocks=%d free=%d", m.Blocks(), m.FreeBlocks())
	}
	for i := 0; i < 8; i++ {
		migrated, ok := m.AllocHuge()
		if !ok || migrated != 0 {
			t.Fatalf("alloc %d: migrated=%d ok=%v", i, migrated, ok)
		}
	}
	if _, ok := m.AllocHuge(); ok {
		t.Fatal("9th alloc must fail")
	}
	if m.Stats().HugeAllocFailures != 1 {
		t.Errorf("failures = %d", m.Stats().HugeAllocFailures)
	}
	m.FreeHuge()
	if _, ok := m.AllocHuge(); !ok {
		t.Fatal("freed block must be allocable")
	}
}

func TestFreeHugePanicsWithoutAlloc(t *testing.T) {
	m := New(Config{TotalBytes: 4 << 21})
	defer func() {
		if recover() == nil {
			t.Fatal("FreeHuge without outstanding huge must panic")
		}
	}()
	m.FreeHuge()
}

func TestFragmentFractionValidation(t *testing.T) {
	m := New(Config{TotalBytes: 4 << 21})
	defer func() {
		if recover() == nil {
			t.Fatal("fragment > 1 must panic")
		}
	}()
	m.Fragment(1.5, rand.New(rand.NewSource(1)))
}

func TestFragmentBlocksUnmovable(t *testing.T) {
	m := New(Config{TotalBytes: 100 << 21, MovableFillRatio: 0.5})
	m.Fragment(0.9, rand.New(rand.NewSource(1)))
	if got := hugeBlocksAvailable(m); got != 10 {
		t.Errorf("available = %d, want 10 (10%% of 100)", got)
	}
	// All 10 allocations require compaction (MovableFillRatio > 0).
	for i := 0; i < 10; i++ {
		migrated, ok := m.AllocHuge()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if migrated == 0 {
			t.Fatalf("alloc %d should have compacted (no free blocks)", i)
		}
	}
	if _, ok := m.AllocHuge(); ok {
		t.Fatal("unmovable blocks must never be allocable")
	}
}

func TestFragmentZeroFillLeavesFree(t *testing.T) {
	m := New(Config{TotalBytes: 10 << 21, MovableFillRatio: 0})
	m.Fragment(0.5, rand.New(rand.NewSource(2)))
	if m.FreeBlocks() != 5 {
		t.Errorf("free = %d, want 5", m.FreeBlocks())
	}
	migrated, ok := m.AllocHuge()
	if !ok || migrated != 0 {
		t.Errorf("free-block alloc: migrated=%d ok=%v", migrated, ok)
	}
}

func TestCompactionCostAccounting(t *testing.T) {
	m := New(Config{TotalBytes: 4 << 21, MovableFillRatio: 0.25})
	m.Fragment(0, rand.New(rand.NewSource(3))) // all movable, none unmovable
	migrated, ok := m.AllocHuge()
	if !ok {
		t.Fatal("alloc failed")
	}
	want := int(0.25 * 512)
	if migrated != want {
		t.Errorf("migrated = %d, want %d", migrated, want)
	}
	st := m.Stats()
	if st.Compactions != 1 || st.FramesMigrated != uint64(want) {
		t.Errorf("stats = %+v", st)
	}
}

// TestAllocPrefersFreeBlock exercises the free-block fast path after a
// demotion frees one block into an otherwise movable-only pool.
func TestAllocPrefersFreeBlock(t *testing.T) {
	m := New(Config{TotalBytes: 4 << 21, MovableFillRatio: 0.5})
	m.Fragment(0, rand.New(rand.NewSource(4)))
	if _, ok := m.AllocHuge(); !ok { // compaction path
		t.Fatal("setup alloc failed")
	}
	m.FreeHuge() // now exactly one free block exists
	migrated, ok := m.AllocHuge()
	if !ok || migrated != 0 {
		t.Errorf("free block must be preferred: migrated=%d ok=%v", migrated, ok)
	}
}

func TestHugePagesInUse(t *testing.T) {
	m := New(Config{TotalBytes: 6 << 21})
	m.AllocHuge()
	m.AllocHuge()
	if m.HugePagesInUse() != 2 {
		t.Errorf("in use = %d", m.HugePagesInUse())
	}
	m.FreeHuge()
	if m.HugePagesInUse() != 1 {
		t.Errorf("in use after free = %d", m.HugePagesInUse())
	}
}

func TestDeterministicFragmentation(t *testing.T) {
	a := New(Config{TotalBytes: 64 << 21, MovableFillRatio: 0.5})
	b := New(Config{TotalBytes: 64 << 21, MovableFillRatio: 0.5})
	a.Fragment(0.5, rand.New(rand.NewSource(7)))
	b.Fragment(0.5, rand.New(rand.NewSource(7)))
	if a.String() != b.String() {
		t.Error("same seed must fragment identically")
	}
	c := New(Config{TotalBytes: 64 << 21, MovableFillRatio: 0.5})
	c.Fragment(0.5, rand.New(rand.NewSource(8)))
	// Aggregate counts match even if placement differs; verify via
	// available count instead.
	if hugeBlocksAvailable(a) != hugeBlocksAvailable(c) {
		t.Error("fragmentation fraction must be seed-independent in aggregate")
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: free + movable + unmovable + huge == total blocks, under
	// random alloc/free sequences.
	f := func(seed int64, fragPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{TotalBytes: 32 << 21, MovableFillRatio: 0.5})
		m.Fragment(float64(fragPct%100)/100, rng)
		outstanding := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				if _, ok := m.AllocHuge(); ok {
					outstanding++
				}
			} else if outstanding > 0 {
				m.FreeHuge()
				outstanding--
			}
		}
		return m.HugePagesInUse() == outstanding
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	m := New(DefaultConfig())
	s := m.String()
	if !strings.Contains(s, "blocks=2048") {
		t.Errorf("summary = %q", s)
	}
}

func TestAllocBaseAccounting(t *testing.T) {
	m := New(Config{TotalBytes: 4 << 21})
	m.AllocBase(7)
	m.AllocBase(3)
	if m.Stats().BaseAllocs != 10 {
		t.Errorf("base allocs = %d", m.Stats().BaseAllocs)
	}
}

// hugeBlocksAvailable counts the blocks a huge allocation could still use:
// free ones plus those compaction could empty.
func hugeBlocksAvailable(m *Memory) int {
	n := 0
	for _, b := range m.blocks {
		if b == blockFree || b == blockMovable {
			n++
		}
	}
	return n
}
