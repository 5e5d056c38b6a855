package physmem

import (
	"math/rand"
	"testing"
)

// TestPropertyFragmentOneUnmovablePerBlock checks the paper's fragmentation
// pattern ("one non-movable page in every 2MB-aligned region" across X% of
// memory): for any fraction and seed, exactly int(frac*blocks) distinct
// blocks are unmovable — the injector never stacks two unmovable frames
// into one region (which would understate fragmentation), and never leaks
// an unmovable frame into a block counted as usable.
func TestPropertyFragmentOneUnmovablePerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		blocks := 1 + rng.Intn(256)
		frac := rng.Float64()
		fill := float64(rng.Intn(3)) * 0.5 // 0, 0.5, 1.0
		m := New(Config{TotalBytes: uint64(blocks) << 21, MovableFillRatio: fill})
		m.Fragment(frac, rand.New(rand.NewSource(int64(trial))))

		unmovable := 0
		for b, st := range m.blocks {
			switch st {
			case blockUnmovable:
				unmovable++
			case blockFree:
				if m.movableFrames[b] != 0 {
					t.Fatalf("trial %d: free block %d holds %d frames", trial, b, m.movableFrames[b])
				}
			}
		}
		if want := int(frac * float64(blocks)); unmovable != want {
			t.Fatalf("trial %d: frac=%v over %d blocks marked %d unmovable blocks, want exactly %d",
				trial, frac, blocks, unmovable, want)
		}
		if bad := m.Audit(); len(bad) > 0 {
			t.Fatalf("trial %d: audit after Fragment: %v", trial, bad)
		}
	}
}

// TestPropertyChurnConservation drives random churn against fragmented
// memory and checks frame conservation: the movable/pinned populations must
// always equal the Fragment seed plus the churn ledger, no matter how
// allocation-time compaction and the background daemon shuffle frames
// between blocks in between.
func TestPropertyChurnConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		blocks := 8 + rng.Intn(128)
		m := New(Config{TotalBytes: uint64(blocks) << 21, MovableFillRatio: rng.Float64()})
		m.Fragment(rng.Float64()*0.9, rand.New(rand.NewSource(int64(trial))))
		seedMov, seedPin := m.movableTotal, m.pinnedTotal
		opRNG := rand.New(rand.NewSource(int64(trial) * 7))
		live := 0
		for step := 0; step < 100; step++ {
			switch opRNG.Intn(5) {
			case 0:
				m.Churn(opRNG, opRNG.Intn(64), opRNG.Intn(64), opRNG.Float64()*0.3)
			case 1:
				m.Compact(opRNG.Intn(512))
			case 2:
				if _, ok := m.AllocHuge(); ok {
					live++
				}
			case 3:
				if live > 0 {
					m.FreeHuge()
					live--
				}
			}
			st := m.Stats()
			if got, want := m.movableTotal, seedMov+st.ChurnAllocFrames-st.ChurnFreeFrames; got != want {
				t.Fatalf("trial %d step %d: movable=%d, ledger=%d", trial, step, got, want)
			}
			if got, want := m.pinnedTotal, seedPin+st.ChurnPinnedFrames; got != want {
				t.Fatalf("trial %d step %d: pinned=%d, ledger=%d", trial, step, got, want)
			}
		}
	}
}

// TestPropertyCompactBudget checks the daemon never migrates more frames
// than its per-pass budget, for arbitrary budgets and memory shapes, and
// that rebuilt blocks really are free.
func TestPropertyCompactBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		blocks := 4 + rng.Intn(256)
		m := New(Config{TotalBytes: uint64(blocks) << 21, MovableFillRatio: rng.Float64()})
		m.Fragment(rng.Float64(), rand.New(rand.NewSource(int64(trial))))
		budget := rng.Intn(2048)
		freeBefore := m.FreeBlocks()
		migrated, rebuilt := m.Compact(budget)
		if migrated > budget {
			t.Fatalf("trial %d: daemon migrated %d frames over budget %d", trial, migrated, budget)
		}
		if m.FreeBlocks() != freeBefore+rebuilt {
			t.Fatalf("trial %d: free %d -> %d but rebuilt=%d", trial, freeBefore, m.FreeBlocks(), rebuilt)
		}
		if bad := m.Audit(); len(bad) > 0 {
			t.Fatalf("trial %d: audit after Compact: %v", trial, bad)
		}
	}
}

// TestPropertyAuditCleanUnderRandomAllocFree runs random huge/giga
// alloc/free sequences over fragmented memory and checks the allocator's
// own census audit stays clean at every step.
func TestPropertyAuditCleanUnderRandomAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		blocks := 512 + rng.Intn(1024)
		m := New(Config{TotalBytes: uint64(blocks) << 21, MovableFillRatio: 0.5})
		m.Fragment(rng.Float64()*0.9, rand.New(rand.NewSource(int64(trial))))
		live := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(5) {
			case 0:
				if live > 0 {
					m.FreeHuge()
					live--
				}
			case 1:
				m.Churn(rng, rng.Intn(32), rng.Intn(32), rng.Float64()*0.2)
			case 2:
				m.Compact(rng.Intn(1024))
			default:
				if _, ok := m.AllocHuge(); ok {
					live++
				}
			}
			if bad := m.Audit(); len(bad) > 0 {
				t.Fatalf("trial %d step %d: %v", trial, step, bad)
			}
		}
	}
}
