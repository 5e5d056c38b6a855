package physmem

import (
	"math/rand"
	"testing"
)

func TestGigaCapable(t *testing.T) {
	small := New(Config{TotalBytes: 256 << 21}) // 256 blocks < 512
	if small.GigaCapable() {
		t.Error("256 blocks cannot hold a 1GB page")
	}
	big := New(Config{TotalBytes: 1024 << 21})
	if !big.GigaCapable() {
		t.Error("1024 blocks must be giga capable")
	}
}

func TestAllocGigaPristine(t *testing.T) {
	m := New(Config{TotalBytes: 1024 << 21}) // 2GB = 2 windows
	migrated, ok := m.AllocGiga()
	if !ok || migrated != 0 {
		t.Fatalf("alloc = %d,%v", migrated, ok)
	}
	if m.GigaPagesInUse() != 1 {
		t.Errorf("giga in use = %d", m.GigaPagesInUse())
	}
	// The window's 512 blocks are consumed.
	if m.FreeBlocks() != 512 {
		t.Errorf("free blocks = %d, want 512", m.FreeBlocks())
	}
	if _, ok := m.AllocGiga(); !ok {
		t.Fatal("second window must allocate")
	}
	if _, ok := m.AllocGiga(); ok {
		t.Fatal("third giga alloc must fail")
	}
	if m.Stats().GigaAllocFailures != 1 {
		t.Errorf("failures = %d", m.Stats().GigaAllocFailures)
	}
}

func TestAllocGigaPoisonedByUnmovable(t *testing.T) {
	m := New(Config{TotalBytes: 1024 << 21, MovableFillRatio: 0})
	// Fragment a tiny fraction: with 2 windows and ~10 unmovable blocks
	// placed randomly, both windows are almost surely poisoned.
	m.Fragment(0.01, rand.New(rand.NewSource(3)))
	_, ok := m.AllocGiga()
	// Either both windows are poisoned (common) or one survived; verify
	// consistency rather than a fixed outcome, then poison everything.
	if ok {
		m.FreeGiga()
	}
	m.Fragment(0.5, rand.New(rand.NewSource(4)))
	if _, ok := m.AllocGiga(); ok {
		t.Fatal("50% fragmentation must poison every 1GB window")
	}
}

func TestAllocGigaCompactsMovable(t *testing.T) {
	// Two windows, all movable at fill 0.25: the evicted window's frames
	// must land in the other window's spare capacity.
	m := New(Config{TotalBytes: 1024 << 21, MovableFillRatio: 0.25})
	m.Fragment(0, rand.New(rand.NewSource(5))) // all movable, none unmovable
	before := m.movableTotal
	migrated, ok := m.AllocGiga()
	if !ok {
		t.Fatal("movable window must be compactable")
	}
	want := 512 * int(0.25*512)
	if migrated != want {
		t.Errorf("migrated = %d, want %d", migrated, want)
	}
	if m.Stats().Compactions != 1 {
		t.Errorf("compactions = %d", m.Stats().Compactions)
	}
	if m.movableTotal != before {
		t.Errorf("movable frames %d -> %d: compaction must conserve frames",
			before, m.movableTotal)
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

func TestAllocGigaFailsWithoutDestinations(t *testing.T) {
	// A single-window machine whose only window holds movable data has
	// nowhere to migrate it: conservation makes the allocation fail where
	// the old vanish-on-compact model spuriously succeeded.
	m := New(Config{TotalBytes: 512 << 21, MovableFillRatio: 0.25})
	m.Fragment(0, rand.New(rand.NewSource(5)))
	if _, ok := m.AllocGiga(); ok {
		t.Fatal("giga alloc must fail: no destination capacity outside the window")
	}
	st := m.Stats()
	if st.MigrationFailures != 1 || st.GigaAllocFailures != 1 {
		t.Errorf("migration failures = %d, giga failures = %d, want 1 and 1",
			st.MigrationFailures, st.GigaAllocFailures)
	}
	if msgs := m.Audit(); len(msgs) != 0 {
		t.Fatalf("audit violations: %v", msgs)
	}
}

func TestFreeGiga(t *testing.T) {
	m := New(Config{TotalBytes: 512 << 21})
	if _, ok := m.AllocGiga(); !ok {
		t.Fatal("alloc failed")
	}
	m.FreeGiga()
	if m.GigaPagesInUse() != 0 || m.FreeBlocks() != 512 {
		t.Errorf("post-free: giga=%d free=%d", m.GigaPagesInUse(), m.FreeBlocks())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FreeGiga without outstanding page must panic")
		}
	}()
	m.FreeGiga()
}

func TestGigaAndHugeCoexist(t *testing.T) {
	m := New(Config{TotalBytes: 1024 << 21})
	if _, ok := m.AllocHuge(); !ok {
		t.Fatal("huge alloc failed")
	}
	// The huge block poisons its window; only the other window remains.
	if _, ok := m.AllocGiga(); !ok {
		t.Fatal("second window must still be allocable")
	}
	if _, ok := m.AllocGiga(); ok {
		t.Fatal("no window should remain")
	}
}
