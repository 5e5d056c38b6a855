package physmem

import (
	"math/rand"
	"testing"
)

func TestFragmentPanicsWithLiveHugePages(t *testing.T) {
	m := New(Config{TotalBytes: 8 << 21})
	if _, ok := m.AllocHuge(); !ok {
		t.Fatal("setup alloc failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fragment with a live huge page must panic")
		}
	}()
	m.Fragment(0.5, rand.New(rand.NewSource(1)))
}

func TestFragmentPanicsWithLiveGigaPages(t *testing.T) {
	m := New(Config{TotalBytes: 512 << 21})
	if _, ok := m.AllocGiga(); !ok {
		t.Fatal("setup giga alloc failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fragment with a live giga page must panic")
		}
	}()
	m.Fragment(0.5, rand.New(rand.NewSource(1)))
}

// TestCompactionMigratesIntoPinnedBlocksFirst checks the destination
// preference order: evicted frames park in already-poisoned blocks before
// spilling into clean movable blocks.
func TestCompactionMigratesIntoPinnedBlocksFirst(t *testing.T) {
	m := New(Config{TotalBytes: 3 << 21, MovableFillRatio: 0})
	// Block 0: pinned with lots of spare; block 1: movable source;
	// block 2: movable with spare.
	m.pinnedFrames[0] = 1
	m.blocks[0] = blockUnmovable
	m.movableFrames[1] = 100
	m.blocks[1] = blockMovable
	m.movableFrames[2] = 10
	m.blocks[2] = blockMovable
	m.freeBlocks = 0
	m.movableTotal, m.pinnedTotal = 110, 1
	m.seedMovable, m.seedPinned = 110, 1

	migrated, ok := m.AllocHuge()
	if !ok {
		t.Fatal("alloc must compact")
	}
	// Cheapest source is block 2 (10 frames); its frames must land in the
	// pinned block 0, not in movable block 1.
	if migrated != 10 {
		t.Fatalf("migrated = %d, want 10", migrated)
	}
	if m.movableFrames[0] != 10 || m.movableFrames[1] != 100 {
		t.Errorf("frames landed movable[0]=%d movable[1]=%d; want pinned block first (10, 100)",
			m.movableFrames[0], m.movableFrames[1])
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

// TestAllocHugeFailsWhenFramesDontFit sets up a memory where the only
// movable block's frames exceed every other block's spare capacity: the
// allocation must fail instead of vanishing the frames.
func TestAllocHugeFailsWhenFramesDontFit(t *testing.T) {
	m := New(Config{TotalBytes: 2 << 21, MovableFillRatio: 0})
	// Block 0: pinned and almost full; block 1: movable source with more
	// frames than block 0's spare.
	m.pinnedFrames[0] = 500
	m.blocks[0] = blockUnmovable
	m.movableFrames[1] = 100 // spare in block 0 is 12 < 100
	m.blocks[1] = blockMovable
	m.freeBlocks = 0
	m.movableTotal, m.pinnedTotal = 100, 500
	m.seedMovable, m.seedPinned = 100, 500

	if _, ok := m.AllocHuge(); ok {
		t.Fatal("alloc must fail: evicted frames have nowhere to go")
	}
	st := m.Stats()
	if st.MigrationFailures != 1 || st.HugeAllocFailures != 1 {
		t.Errorf("migration failures = %d, huge failures = %d, want 1 and 1",
			st.MigrationFailures, st.HugeAllocFailures)
	}
	if m.movableFrames[1] != 100 {
		t.Errorf("failed migration must not move frames; block 1 holds %d", m.movableFrames[1])
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

func TestChurnConservesLedger(t *testing.T) {
	m := New(Config{TotalBytes: 64 << 21, MovableFillRatio: 0.5})
	m.Fragment(0.3, rand.New(rand.NewSource(9)))
	seedMov, seedPin := m.movableTotal, m.pinnedTotal
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50; i++ {
		m.Churn(rng, 40, 20, 0.1)
	}
	st := m.Stats()
	if got, want := m.movableTotal, seedMov+st.ChurnAllocFrames-st.ChurnFreeFrames; got != want {
		t.Errorf("movable frames = %d, ledger accounts for %d", got, want)
	}
	if got, want := m.pinnedTotal, seedPin+st.ChurnPinnedFrames; got != want {
		t.Errorf("pinned frames = %d, ledger accounts for %d", got, want)
	}
	if st.ChurnPinnedFrames == 0 {
		t.Error("pinnedFrac 0.1 over 2000 allocs should have pinned some frames")
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

func TestChurnBlockedWhenFull(t *testing.T) {
	m := New(Config{TotalBytes: 2 << 21, MovableFillRatio: 1.0})
	m.Fragment(1.0, rand.New(rand.NewSource(11))) // every block pinned + full
	rng := rand.New(rand.NewSource(12))
	m.Churn(rng, 10, 0, 0)
	if got := m.Stats().ChurnBlockedAllocs; got != 10 {
		t.Errorf("blocked allocs = %d, want 10", got)
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

func TestCompactRebuildsFreeBlocks(t *testing.T) {
	m := New(Config{TotalBytes: 8 << 21, MovableFillRatio: 0.25})
	m.Fragment(0.5, rand.New(rand.NewSource(13)))
	if m.FreeBlocks() != 0 {
		t.Fatalf("setup: free = %d, want 0", m.FreeBlocks())
	}
	migrated, rebuilt := m.Compact(1 << 20)
	if rebuilt == 0 || migrated == 0 {
		t.Fatalf("daemon idle: migrated=%d rebuilt=%d", migrated, rebuilt)
	}
	if m.FreeBlocks() != rebuilt {
		t.Errorf("free blocks = %d, rebuilt = %d", m.FreeBlocks(), rebuilt)
	}
	st := m.Stats()
	if st.DaemonMigrated != uint64(migrated) || st.DaemonRebuilt != uint64(rebuilt) {
		t.Errorf("daemon stats = %+v, want migrated=%d rebuilt=%d", st, migrated, rebuilt)
	}
	// Allocation-time compaction counters must be untouched by the daemon.
	if st.Compactions != 0 || st.FramesMigrated != 0 {
		t.Errorf("daemon leaked into alloc-time counters: %+v", st)
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

func TestCompactNeverConsumesFreeBlocks(t *testing.T) {
	m := New(Config{TotalBytes: 4 << 21, MovableFillRatio: 0})
	// One free block, one movable source, one pinned destination with
	// limited spare, one pinned nearly-full.
	m.movableFrames[1] = 200
	m.blocks[1] = blockMovable
	m.pinnedFrames[2] = 1
	m.blocks[2] = blockUnmovable
	m.pinnedFrames[3] = 412 // spare 100 < 200
	m.blocks[3] = blockUnmovable
	m.freeBlocks = 1
	m.movableTotal, m.pinnedTotal = 200, 413
	m.seedMovable, m.seedPinned = 200, 413

	migrated, rebuilt := m.Compact(1 << 20)
	// Block 1's 200 frames fit in block 2 (spare 511) — the free block 0
	// must remain free and unused.
	if migrated != 200 || rebuilt != 1 {
		t.Fatalf("migrated=%d rebuilt=%d, want 200 and 1", migrated, rebuilt)
	}
	if m.blocks[0] != blockFree || m.movableFrames[0] != 0 {
		t.Error("daemon consumed a free block as destination")
	}
	if m.FreeBlocks() != 2 {
		t.Errorf("free blocks = %d, want 2 (original + rebuilt)", m.FreeBlocks())
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}
