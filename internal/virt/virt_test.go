package virt

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

func testVMAs(nRegions int) []mem.Range {
	start := mem.VirtAddr(64 << 20)
	return []mem.Range{{Start: start, End: start + mem.VirtAddr(nRegions)<<21}}
}

// hot returns a stream revisiting scattered pages across r (TLB-hostile at
// 4KB, friendly at 2MB).
func hot(r mem.Range, n int, seed int64) trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	return trace.UniformRandom(r.Start, r.Len(), uint64(n), rng)
}

func TestNestedWalkCostExceedsNative(t *testing.T) {
	r := testVMAs(4)[0]
	m := NewMachine(r)
	m.Run(hot(r, 50_000, 1))
	if m.Walks == 0 {
		t.Fatal("uniform access must walk")
	}
	// 4-level/4-level nested: 4*4+4+4 = 24 refs per walk.
	if got := m.RefsPerWalk(); got != 24 {
		t.Errorf("refs/walk = %f, want 24 for 4K/4K nested", got)
	}
}

func TestEffectiveSizeIsMin(t *testing.T) {
	cases := []struct{ g, h, want mem.PageSize }{
		{mem.Page4K, mem.Page4K, mem.Page4K},
		{mem.Page2M, mem.Page4K, mem.Page4K},
		{mem.Page4K, mem.Page2M, mem.Page4K},
		{mem.Page2M, mem.Page2M, mem.Page2M},
		{mem.Page1G, mem.Page2M, mem.Page2M},
	}
	for _, c := range cases {
		if got := effectiveSize(c.g, c.h); got != c.want {
			t.Errorf("effectiveSize(%v,%v) = %v, want %v", c.g, c.h, got, c.want)
		}
	}
}

func TestGuestOnlyPromotionDoesNotHelp(t *testing.T) {
	// The §5.4.3 claim: if only the guest promotes, the TLB still uses
	// 4KB combined entries, so the miss rate barely moves.
	vmas := testVMAs(8)
	run := func(promote func(m *Machine)) (float64, float64) {
		m := NewMachine(vmas[0])
		m.Run(hot(vmas[0], 30_000, 2)) // warm up + fault in
		promote(m)
		m.Cycles, m.Accesses, m.Walks, m.NestedRefs = 0, 0, 0, 0
		m.Run(hot(vmas[0], 120_000, 3))
		return m.Cycles, m.PTWRate()
	}
	promoteAll := func(f func(m *Machine, base mem.VirtAddr) error) func(*Machine) {
		return func(m *Machine) {
			for b := vmas[0].Start; b < vmas[0].End; b += mem.VirtAddr(mem.Page2M) {
				if err := f(m, b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	baseCycles, basePTW := run(func(*Machine) {})
	guestCycles, guestPTW := run(promoteAll(func(m *Machine, b mem.VirtAddr) error {
		return m.PromoteGuest2M(b)
	}))
	bothCycles, bothPTW := run(promoteAll(func(m *Machine, b mem.VirtAddr) error {
		return m.PromoteBoth2M(b)
	}))

	// Guest-only: TLB entries stay 4KB; miss rate unchanged. (Walk cost
	// does drop a little: the guest dimension shortens.)
	if guestPTW < basePTW*0.9 {
		t.Errorf("guest-only PTW %f must stay near baseline %f", guestPTW, basePTW)
	}
	// Coordinated promotion collapses the combined entry to 2MB: the
	// working set fits the 2MB TLB and walks vanish.
	if bothPTW > basePTW*0.1 {
		t.Errorf("coordinated PTW %f must collapse vs baseline %f", bothPTW, basePTW)
	}
	if bothCycles >= guestCycles || bothCycles >= baseCycles {
		t.Errorf("coordinated (%f) must beat guest-only (%f) and base (%f)",
			bothCycles, guestCycles, baseCycles)
	}
}

func TestHostOnlyPromotionAlsoInsufficient(t *testing.T) {
	vmas := testVMAs(4)
	m := NewMachine(vmas[0])
	m.Run(hot(vmas[0], 20_000, 4))
	for b := vmas[0].Start; b < vmas[0].End; b += mem.VirtAddr(mem.Page2M) {
		if err := m.PromoteHost2M(b); err != nil {
			t.Fatal(err)
		}
	}
	m.Accesses, m.Walks = 0, 0
	m.Run(hot(vmas[0], 50_000, 5))
	// Guest still 4KB: combined entries stay 4KB; misses persist.
	if m.PTWRate() < 0.01 {
		t.Errorf("host-only promotion must not fix the TLB: PTW %f", m.PTWRate())
	}
}

func TestNestedWalkShrinksWithHugeDimensions(t *testing.T) {
	vmas := testVMAs(2)
	m := NewMachine(vmas[0])
	m.Run(hot(vmas[0], 10_000, 6))
	for b := vmas[0].Start; b < vmas[0].End; b += mem.VirtAddr(mem.Page2M) {
		if err := m.PromoteBoth2M(b); err != nil {
			t.Fatal(err)
		}
	}
	m.Walks, m.NestedRefs = 0, 0
	// Force a walk by flushing via promotion shootdown (already done);
	// the next accesses refill.
	m.Run(hot(vmas[0], 10_000, 7))
	if m.Walks > 0 {
		// 3-level/3-level nested: 3*3+3+3 = 15 refs.
		if got := m.RefsPerWalk(); got != 15 {
			t.Errorf("refs/walk = %f, want 15 for 2M/2M nested", got)
		}
	}
}

func TestGuestPCCTracksCandidates(t *testing.T) {
	vmas := testVMAs(8)
	m := NewMachine(vmas[0])
	m.Run(hot(vmas[0], 100_000, 8))
	if m.GuestPCC().Len() == 0 {
		t.Fatal("guest PCC must track walked regions")
	}
	dump := m.GuestPCC().Dump()
	for _, c := range dump {
		if !vmas[0].Contains(c.Region.Base) {
			t.Errorf("candidate %v outside guest VMA", c.Region)
		}
	}
	// Promotion invalidates the candidate.
	base := dump[0].Region.Base
	if err := m.PromoteBoth2M(base); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GuestPCC().Peek(base); ok {
		t.Error("promoted candidate must be invalidated")
	}
}

func TestDoublePromotionErrors(t *testing.T) {
	vmas := testVMAs(1)
	m := NewMachine(vmas[0])
	m.Run(hot(vmas[0], 1000, 9))
	b := vmas[0].Start
	if err := m.PromoteGuest2M(b); err != nil {
		t.Fatal(err)
	}
	if err := m.PromoteGuest2M(b); err == nil {
		t.Error("double guest promotion must error")
	}
	if err := m.PromoteHost2M(b); err != nil {
		t.Fatal(err)
	}
	if err := m.PromoteHost2M(b); err == nil {
		t.Error("double host promotion must error")
	}
	// A region outside the guest range has no pages to map.
	if err := m.PromoteGuest2M(vmas[0].End); err == nil {
		t.Error("guest promotion past the guest range must error")
	}
	if err := m.PromoteHost2M(vmas[0].Start - 1); err == nil {
		t.Error("host promotion below the guest range must error")
	}
}

func TestFaultsCounted(t *testing.T) {
	vmas := testVMAs(1)
	m := NewMachine(vmas[0])
	m.Step(vmas[0].Start)
	if m.Faults != 1 {
		t.Errorf("faults = %d", m.Faults)
	}
	m.Step(vmas[0].Start)
	if m.Faults != 1 {
		t.Error("second access must not re-fault")
	}
}
