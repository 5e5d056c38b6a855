package vmm

import (
	"math/rand"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/reprand"
)

// Dynamic memory pressure: instead of fragmenting physical memory once at
// startup, the machine can perturb it continuously — an ambient churn source
// allocates and frees frames every policy tick (other tenants, kernel
// allocations, page cache), a kcompactd-style daemon spends a bounded
// migration budget rebuilding free 2MB blocks, and when free blocks fall
// below a watermark the oldest huge pages are demoted to reclaim
// contiguity. All of it runs at tick boundaries from a dedicated
// deterministic RNG, so runs stay bit-identical across worker counts and
// trace caching.

// PressureConfig tunes the dynamic pressure model. Enable gates everything;
// each component is additionally off when its own knob is zero.
type PressureConfig struct {
	// Enable turns the pressure model on.
	Enable bool
	// ChurnAllocFrames / ChurnFreeFrames are 4KB frames allocated and freed
	// by the ambient churn source each policy tick.
	ChurnAllocFrames int
	ChurnFreeFrames  int
	// ChurnPinnedFrac is the probability a churn allocation is pinned
	// (unmovable); pinned churn accumulates and progressively poisons
	// blocks the way long-running systems fragment.
	ChurnPinnedFrac float64
	// CompactBudgetFrames is the background daemon's per-tick migration
	// budget in 4KB frames (0 = daemon off). Its work is charged like async
	// promotion work: to BackgroundCycles, with asyncVisibleFrac leaking
	// into cores.
	CompactBudgetFrames int
	// DemoteWatermarkBlocks triggers pressure demotion when free 2MB blocks
	// fall below it (0 = never demote).
	DemoteWatermarkBlocks int
	// MaxDemotionsPerTick bounds demotions per tick (default 1 when
	// watermark demotion is on).
	MaxDemotionsPerTick int
}

// pressureRNG lazily builds the pressure model's dedicated RNG stream,
// decoupled from the fragmentation RNG (which NewMachine consumes at build
// time) so enabling pressure never re-rolls the initial fragment placement.
func (m *Machine) pressureRand() *rand.Rand {
	if m.pressRNG == nil {
		m.pressRNG = reprand.New(m.cfg.Seed*1_000_003 + 17)
	}
	return m.pressRNG.Rand
}

// pressureTick runs one tick of the dynamic pressure model, before the OS
// policy's own tick so the policy faces the perturbed state.
func (m *Machine) pressureTick() {
	pc := m.cfg.Pressure
	if !pc.Enable {
		return
	}
	if pc.ChurnAllocFrames > 0 || pc.ChurnFreeFrames > 0 {
		m.phys.Churn(m.pressureRand(), pc.ChurnAllocFrames, pc.ChurnFreeFrames, pc.ChurnPinnedFrac)
	}
	if pc.CompactBudgetFrames > 0 {
		migrated, rebuilt := m.phys.Compact(pc.CompactBudgetFrames)
		if migrated > 0 {
			work := float64(migrated) * metrics.CompactPer4K
			m.BackgroundCycles += work
			m.chargeAll(work * asyncVisibleFrac)
			m.events.Recordf(m.accessCount, "kcompactd", "migrated=%d rebuilt=%d", migrated, rebuilt)
		}
	}
	if pc.DemoteWatermarkBlocks > 0 && m.phys.FreeBlocks() < pc.DemoteWatermarkBlocks {
		m.demoteUnderPressure(pc)
	}
}

// demoteUnderPressure demotes the oldest-promoted 2MB pages machine-wide
// until the free-block watermark is met or the per-tick cap is hit —
// the reclaim path that makes policies lose huge pages mid-run and face
// real re-promotion decisions.
func (m *Machine) demoteUnderPressure(pc PressureConfig) {
	budget := pc.MaxDemotionsPerTick
	if budget <= 0 {
		budget = 1
	}
	type victim struct {
		p          *Process
		base       mem.VirtAddr
		promotedAt uint64
	}
	var vs []victim
	for _, p := range m.procs {
		for base, at := range p.huge2M {
			vs = append(vs, victim{p: p, base: base, promotedAt: at})
		}
	}
	// Oldest promotion first; (pid, base) as the deterministic tie-break
	// over the map iteration order.
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].promotedAt != vs[j].promotedAt {
			return vs[i].promotedAt < vs[j].promotedAt
		}
		if vs[i].p.ID != vs[j].p.ID {
			return vs[i].p.ID < vs[j].p.ID
		}
		return vs[i].base < vs[j].base
	})
	for _, v := range vs {
		if budget == 0 || m.phys.FreeBlocks() >= pc.DemoteWatermarkBlocks {
			return
		}
		if err := m.Demote2M(v.p, v.base); err == nil {
			m.PressureDemotions++
			budget--
			m.events.Recordf(m.accessCount, "pressure.demote", "proc=%s base=%#x", v.p.Name, uint64(v.base))
		}
	}
}
