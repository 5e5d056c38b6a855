// Package ospolicy implements the operating-system huge page management
// strategies the paper evaluates against each other:
//
//   - PCCEngine: the paper's proposal — the OS periodically reads each
//     core's promotion candidate cache dump and promotes the top-ranked
//     regions (§3.3), with highest-frequency or round-robin selection
//     across PCCs and optional PCC-driven demotion.
//   - HawkEye: the software state of the art (Panwar et al., ASPLOS'19) —
//     access-bit sampling builds per-region access-coverage buckets; the
//     scanner is rate-limited like khugepaged (§2.2).
//   - LinuxTHP: Linux's greedy policy — synchronous 2MB allocation at first
//     touch plus the khugepaged background scanner (§2.1).
//   - AllHuge: the idealized ceiling — everything backed by huge pages at
//     fault time with no memory pressure.
//   - Baseline: 4KB pages only.
//
// All policies implement vmm.Policy.
package ospolicy

import (
	"pccsim/internal/mem"
	"pccsim/internal/vmm"
)

// Baseline maps everything with 4KB pages and never promotes.
type Baseline struct{}

// Name implements vmm.Policy.
func (Baseline) Name() string { return "4KB" }

// BaseFaultOnly marks the fault path as base-pages-only, letting the
// machine devirtualize it (vmm.BaseFaultOnly).
func (Baseline) BaseFaultOnly() {}

// OnFault implements vmm.Policy: always base pages.
func (Baseline) OnFault(*vmm.Machine, *vmm.Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}

// Tick implements vmm.Policy: no background work.
func (Baseline) Tick(*vmm.Machine) {}

// AllHuge is the idealized "100% 2MB pages" configuration: every eligible
// first touch is served with a huge page. On a pristine (unfragmented)
// machine with sufficient memory this is the paper's "Max. Perf. with THPs"
// ceiling.
type AllHuge struct{}

// Name implements vmm.Policy.
func (AllHuge) Name() string { return "2MB-ideal" }

// OnFault implements vmm.Policy: request a huge mapping for every fault
// (the machine falls back to 4KB if the region is ineligible or no block
// exists).
func (AllHuge) OnFault(_ *vmm.Machine, _ *vmm.Process, _ mem.VirtAddr) mem.PageSize {
	return mem.Page2M
}

// Tick implements vmm.Policy.
func (AllHuge) Tick(*vmm.Machine) {}
