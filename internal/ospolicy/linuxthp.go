package ospolicy

import (
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/vmm"
)

// LinuxTHPConfig tunes the Linux Transparent Huge Page model (§2.1).
type LinuxTHPConfig struct {
	// SyncFaultAlloc enables synchronous 2MB allocation at first touch
	// (Linux's aggressive default for THP=always).
	SyncFaultAlloc bool
	// DirectCompactionLimit is how many consecutive fault-time huge
	// allocations may trigger direct compaction before the policy
	// switches to deferred mode (subsequent faults get 4KB, leaving huge
	// page creation to khugepaged) — modelling Linux's defrag backoff
	// that avoids unbounded fault latency.
	DirectCompactionLimit int
	// KhugepagedScanPages is the background scanner's per-interval page
	// budget (default 4096, same rate HawkEye inherits).
	KhugepagedScanPages int
	// KhugepagedPromotions caps background promotions per interval (8
	// regions, matching the 4096-page scan covering 8 regions).
	KhugepagedPromotions int
}

// DefaultLinuxTHPConfig returns Linux's THP=always behaviour.
func DefaultLinuxTHPConfig() LinuxTHPConfig {
	return LinuxTHPConfig{
		SyncFaultAlloc:        true,
		DirectCompactionLimit: 32,
		KhugepagedScanPages:   4096,
		KhugepagedPromotions:  8,
	}
}

// LinuxTHP models Linux's greedy huge page policy: synchronous huge
// allocation at page fault time (paying zeroing and, under fragmentation,
// direct compaction stalls on the application's critical path) plus the
// khugepaged background scanner that collapses fully-populated regions in
// address order — with no knowledge of TLB behaviour, the deficiency the
// paper's Fig. 1 demonstrates.
type LinuxTHP struct {
	cfg LinuxTHPConfig

	// deferred flips on after DirectCompactionLimit compaction-requiring
	// fault allocations; faults then fall back to 4KB.
	compactionFaults int
	deferred         bool

	// khugepaged scan cursor.
	procIdx int
	offset  uint64

	ticks    uint64
	promoted uint64
}

// PublishMetrics implements vmm.MetricsPublisher.
func (l *LinuxTHP) PublishMetrics(s obs.Snapshot) {
	s.Add("ospolicy.ticks", float64(l.ticks))
	s.Add("ospolicy.promoted.2m", float64(l.promoted))
	if l.deferred {
		s.Add("ospolicy.deferred", 1)
	}
}

// NewLinuxTHP builds the policy.
func NewLinuxTHP(cfg LinuxTHPConfig) *LinuxTHP {
	if cfg.KhugepagedScanPages <= 0 {
		cfg.KhugepagedScanPages = 4096
	}
	if cfg.KhugepagedPromotions <= 0 {
		cfg.KhugepagedPromotions = 8
	}
	if cfg.DirectCompactionLimit <= 0 {
		cfg.DirectCompactionLimit = 32
	}
	return &LinuxTHP{cfg: cfg}
}

// Name implements vmm.Policy.
func (l *LinuxTHP) Name() string { return "Linux-THP" }

// OnFault implements vmm.Policy: request a huge page for every first touch
// while not in deferred mode. The machine reports back through
// Phys() state; we track compaction pressure by observing free blocks.
func (l *LinuxTHP) OnFault(m *vmm.Machine, p *vmm.Process, addr mem.VirtAddr) mem.PageSize {
	if !l.cfg.SyncFaultAlloc || l.deferred {
		return mem.Page4K
	}
	if m.Phys().FreeBlocks() == 0 {
		// Huge allocation would require direct compaction (or fail).
		l.compactionFaults++
		if l.compactionFaults >= l.cfg.DirectCompactionLimit {
			l.deferred = true
			return mem.Page4K
		}
	}
	return mem.Page2M
}

// Tick implements vmm.Policy: khugepaged — scan VMAs in address order and
// collapse regions whose base pages are fully present.
func (l *LinuxTHP) Tick(m *vmm.Machine) {
	l.ticks++
	procs := m.Procs()
	if len(procs) == 0 {
		return
	}
	type target struct {
		p    *vmm.Process
		base mem.VirtAddr
	}
	var targets []target

	scanBudget := l.cfg.KhugepagedScanPages
	regionPages := int(mem.Page2M.BasePagesPer())
	emptySkips := 0
	for scanBudget > 0 {
		if l.procIdx >= len(procs) {
			l.procIdx = 0
		}
		p := procs[l.procIdx]
		ranges := p.Ranges()
		var total uint64
		for _, r := range ranges {
			total += r.Len()
		}
		if total == 0 {
			// An address space with no VMA bytes has nothing to scan: move
			// the cursor past it. Returning here (the old behaviour) parked
			// the cursor on the empty process forever, stalling khugepaged
			// for every other process on all subsequent ticks.
			l.offset = 0
			l.procIdx = (l.procIdx + 1) % len(procs)
			emptySkips++
			if emptySkips >= len(procs) {
				// Every process is empty; nothing to scan this tick.
				return
			}
			continue
		}
		emptySkips = 0
		if l.offset >= total {
			l.offset = 0
			l.procIdx = (l.procIdx + 1) % len(procs)
			continue
		}
		off := l.offset
		var addr mem.VirtAddr
		for _, r := range ranges {
			if off < r.Len() {
				addr = r.Start + mem.VirtAddr(off)
				break
			}
			off -= r.Len()
		}
		base := mem.PageBase(addr, mem.Page2M)
		// khugepaged examines the whole region's PTEs (one region costs
		// regionPages of scan budget).
		scanBudget -= regionPages
		l.offset += uint64(mem.Page2M)
		if p.IsHuge2M(base) {
			continue
		}
		// Collapse if any pages are mapped (max_ptes_none is permissive
		// by default: khugepaged collapses sparsely-populated regions,
		// the bloat the paper criticizes).
		if size, mapped := p.StateOf(base); mapped && size == mem.Page4K {
			targets = append(targets, target{p: p, base: base})
		}
	}

	sort.Slice(targets, func(i, j int) bool { return targets[i].base < targets[j].base })
	if len(targets) > 0 {
		m.Notef("khugepaged", "collapse_targets=%d", len(targets))
	}
	promoted := 0
	for _, t := range targets {
		if promoted >= l.cfg.KhugepagedPromotions {
			break
		}
		if err := m.Promote2M(t.p, t.base); err == nil {
			promoted++
			l.promoted++
		} else if vmm.IsNoPhysicalBlock(err) {
			return
		}
	}
}
