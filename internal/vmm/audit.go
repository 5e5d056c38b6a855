package vmm

import (
	"fmt"

	"pccsim/internal/mem"
)

// Audit cross-checks the machine's redundant bookkeeping and returns one
// message per violation (empty means every invariant holds). It verifies:
//
//   - every valid TLB entry (any core, any level) translates a page some
//     process currently maps at that exact size — a stale entry after a
//     remap is the classic shootdown bug;
//   - every candidate-cache region (2MB PCC / victim tracker / 1GB PCC)
//     overlaps a live VMA of some process;
//   - the physical memory model's cached free/huge/giga tallies match a
//     fresh census of its block index, and every live huge/giga page is
//     owned by exactly one process's inventory;
//   - each process's huge-page inventory agrees with its VMA state arrays;
//   - whatever extra checks the installed policy implements via
//     PolicyAuditor (e.g. promotion tallies vs engine state).
//
// Audit never mutates simulation state, so it is safe to run between any
// two accesses; cost is proportional to the hardware structure sizes plus
// the huge-page inventory, not the footprint.
func (m *Machine) Audit() []string {
	var bad []string

	// TLB entries vs mappings. The TLB has no ASID, so an entry is
	// acceptable if any process maps that (vpn, size).
	for _, c := range m.cores {
		c.TLB.VisitValid(func(level string, vpn mem.PageNum, size mem.PageSize) {
			base := mem.VirtAddr(uint64(vpn) << size.Shift())
			for _, p := range m.procs {
				if s, ok := p.StateOf(base); ok && s == size {
					return
				}
			}
			bad = append(bad, fmt.Sprintf("core %d %s: stale TLB entry %#x/%v not mapped by any process",
				c.ID, level, uint64(base), size))
		})
	}

	// Candidate caches vs live VMAs.
	checkTracker := func(coreID int, name string, regions []mem.Region) {
		for _, r := range regions {
			rng := mem.Range{Start: r.Base, End: r.End()}
			live := false
			for _, p := range m.procs {
				for _, vr := range p.Ranges() {
					if vr.Overlaps(rng) {
						live = true
						break
					}
				}
				if live {
					break
				}
			}
			if !live {
				bad = append(bad, fmt.Sprintf("core %d %s: candidate %#x/%v outside every VMA",
					coreID, name, uint64(r.Base), r.Size))
			}
		}
	}
	for _, c := range m.cores {
		if t := c.Candidates2M(); t != nil {
			checkTracker(c.ID, "pcc2m", t.Regions())
		}
		if c.PCC1G != nil {
			checkTracker(c.ID, "pcc1g", c.PCC1G.Regions())
		}
	}

	// Physical memory block index vs its cached tallies.
	bad = append(bad, m.phys.Audit()...)

	// Physical huge/giga pages vs the per-process inventories.
	var inv2M, inv1G int
	for _, p := range m.procs {
		inv2M += len(p.huge2M)
		inv1G += len(p.huge1G)
	}
	if got := m.phys.HugePagesInUse(); got != inv2M {
		bad = append(bad, fmt.Sprintf("physmem holds %d 2MB pages but process inventories total %d", got, inv2M))
	}
	if got := m.phys.GigaPagesInUse(); got != inv1G {
		bad = append(bad, fmt.Sprintf("physmem holds %d 1GB pages but process inventories total %d", got, inv1G))
	}

	// Per-process inventory vs VMA state.
	for _, p := range m.procs {
		for base := range p.huge2M {
			if s, ok := p.StateOf(base); !ok || s != mem.Page2M {
				bad = append(bad, fmt.Sprintf("proc %s: VMA state at %#x is not 2MB-mapped",
					p.Name, uint64(base)))
			}
		}
		for base := range p.huge1G {
			if s, ok := p.StateOf(base); !ok || s != mem.Page1G {
				bad = append(bad, fmt.Sprintf("proc %s: VMA state at %#x is not 1GB-mapped",
					p.Name, uint64(base)))
			}
		}
	}

	// Pressure demotions flow through Demote2M, so every one of them is
	// also in some live process's Demotions tally or in the reaped tallies
	// of an exited one.
	var demTotal uint64
	for _, p := range m.procs {
		demTotal += p.Demotions
	}
	if m.PressureDemotions > demTotal+m.reaped.Demotions {
		bad = append(bad, fmt.Sprintf("machine counts %d pressure demotions but live processes recorded %d and reaped %d demotions total",
			m.PressureDemotions, demTotal, m.reaped.Demotions))
	}

	// NUMA ledgers must only reference live processes, and every placement
	// must lie inside a live VMA of its process — exit/exec teardown erases
	// both, so a surviving entry is a leak.
	if m.numa != nil {
		liveByID := make(map[int]*Process, len(m.procs))
		for _, p := range m.procs {
			liveByID[p.ID] = p
		}
		for k := range m.numa.placement {
			p, ok := liveByID[k.pid]
			if !ok {
				bad = append(bad, fmt.Sprintf("numa placement %#x references dead pid %d", uint64(k.base), k.pid))
				continue
			}
			inVMA := false
			for _, v := range p.vmas {
				if k.base >= v.base2M && k.base < v.r.End {
					inVMA = true
					break
				}
			}
			if !inVMA {
				bad = append(bad, fmt.Sprintf("proc %s: numa placement %#x outside every VMA", p.Name, uint64(k.base)))
			}
		}
		for pid := range m.numa.regionsPlaced {
			if _, ok := liveByID[pid]; !ok {
				bad = append(bad, fmt.Sprintf("numa region counter references dead pid %d", pid))
			}
		}
		// Every filled node memo must repeat the ledger's placement.
		for _, p := range m.procs {
			for _, v := range p.vmas {
				for s, nd := range v.node2M {
					if nd == 0 {
						continue
					}
					base := v.base2M + mem.VirtAddr(uint64(s)<<21)
					if node, ok := m.numa.placement[demotePlacementKey{pid: p.ID, base: base}]; !ok || int(nd-1) != node {
						bad = append(bad, fmt.Sprintf("proc %s: numa memo for %#x says node %d, ledger %d (placed %v)",
							p.Name, uint64(base), nd-1, node, ok))
					}
				}
			}
		}
	}

	if a, ok := m.policy.(PolicyAuditor); ok {
		bad = append(bad, a.AuditPolicy(m)...)
	}
	return bad
}

// auditNow panics with every violation if the auditor finds any — the
// loud-tripwire mode AuditEveryTick / TestForceAudit arm.
func (m *Machine) auditNow(when string) {
	if bad := m.Audit(); len(bad) > 0 {
		panic(fmt.Sprintf("vmm: %d invariant violation(s) %s (access %d): %v",
			len(bad), when, m.accessCount, bad))
	}
}
