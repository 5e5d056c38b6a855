package vmm

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/ptw"
)

// pageState encodes the mapping state of one 4KB virtual page.
type pageState uint8

const (
	stateUnmapped pageState = iota
	state4K
	state2M // part of a 2MB huge mapping
	state1G // part of a 1GB giant mapping
)

// vma is one simulated virtual memory area with a flat per-4KB-page state
// array for O(1) mapping lookups on the access hot path. The authoritative
// page table (with accessed bits and walk structure) is kept in sync.
type vma struct {
	r     mem.Range
	state []pageState
	// touched marks 4KB pages the application has actually accessed,
	// independent of mapping granularity — the basis of the memory-bloat
	// metric (huge-backed bytes never touched, §2.1's THP bloat problem).
	touched []bool
	// lastUse2M records, per 2MB region of the VMA, the last simulated
	// time a 2MB mapping there missed the L1 TLB — the OS-visible liveness
	// signal demotion relies on (regions resident in the L1 2MB TLB are
	// certainly hot; regions that stop missing entirely went cold). Slot 0
	// covers the region at base2M; 0 means "never since promotion"
	// (genuine timestamps are >= 1: the access counter pre-increments).
	lastUse2M []uint64
	// base2M is r.Start rounded down to a 2MB boundary: the address slot 0
	// of lastUse2M corresponds to.
	base2M mem.VirtAddr
	// node2M memoizes, per 2MB region (indexed like lastUse2M), the NUMA
	// node the machine's first-touch ledger placed the region on, plus
	// one; 0 means not looked up yet. The full-translation step reads it
	// (numaState.node) instead of hashing the ledger's (pid, base) key.
	// Teardown and snapshot restore zero it with the ledger entries.
	node2M []int32
	// memPolicy is the VMA's NUMA memory policy (mbind semantics); the zero
	// value defers to the machine-wide placement policy. Consulted only at
	// first-touch placement, never on the access hot path.
	memPolicy VMAMemPolicy
}

func (v *vma) stateOf(a mem.VirtAddr) pageState {
	return v.state[uint64(a-v.r.Start)>>12]
}

// slot2M maps an address inside the VMA to its lastUse2M index.
func (v *vma) slot2M(a mem.VirtAddr) uint64 { return uint64(a-v.base2M) >> 21 }

// noteUse2M timestamps the 2MB region containing a (hot path: one shift and
// an indexed store, no hashing).
func (v *vma) noteUse2M(a mem.VirtAddr, now uint64) { v.lastUse2M[v.slot2M(a)] = now }

func (v *vma) setRange(start, end mem.VirtAddr, s pageState) {
	if start < v.r.Start {
		start = v.r.Start
	}
	if end > v.r.End {
		end = v.r.End
	}
	i := uint64(start-v.r.Start) >> 12
	j := uint64(end-v.r.Start) >> 12
	for ; i < j; i++ {
		v.state[i] = s
	}
}

// Process is one simulated address space: its page table, VMAs, huge page
// inventory and runtime accounting.
type Process struct {
	ID    int
	Name  string
	Table *ptw.Table

	vmas      []*vma
	footprint uint64 // bytes across VMAs
	// lastVMA caches the most recent vmaOf hit: access streams run inside
	// one VMA for long stretches, so this turns the per-access lookup into
	// a single range check.
	lastVMA *vma

	// BaseCPA is the workload's base cycles-per-access (cost model input).
	BaseCPA float64

	// HomeNode is the NUMA node the process's CPUs live on (only
	// meaningful when the machine's NUMA model is enabled).
	HomeNode int

	// MaxHugeBytes caps the huge-page-backed bytes for this process
	// (the utility-curve budget). 0 means unlimited.
	MaxHugeBytes uint64

	// huge2M records currently-2MB-mapped region bases, with the tick at
	// which each was promoted (for demotion ordering). Per-region last-use
	// timestamps live in each vma's lastUse2M slots.
	huge2M map[mem.VirtAddr]uint64
	// huge1G records 1GB-mapped region bases.
	huge1G map[mem.VirtAddr]uint64

	// Promotions / demotions performed for this process.
	Promotions2M uint64
	Promotions1G uint64
	Demotions    uint64
	Faults       uint64
	HugeFaults   uint64

	// RuntimeCycles is fixed when the process's stream completes during a
	// Run (max cycles across its cores at that instant).
	RuntimeCycles float64
	finished      bool

	// churn marks machine-owned lifecycle processes (spawned by the
	// lifecycle tick, never bound to a Run job). Snapshot restore
	// reconstructs churn processes from serialized geometry instead of
	// expecting the builder to re-register them.
	churn bool
}

// newProcess builds an empty address space over the given VMAs.
func newProcess(id int, name string, ranges []mem.Range, baseCPA float64) *Process {
	p := &Process{
		ID:      id,
		Name:    name,
		Table:   ptw.NewTable(),
		BaseCPA: baseCPA,
		huge2M:  map[mem.VirtAddr]uint64{},
		huge1G:  map[mem.VirtAddr]uint64{},
	}
	p.setVMAs(ranges)
	return p
}

// setVMAs (re)builds the address space geometry over the given VMAs. The
// caller must have emptied the previous address space (teardown) first:
// state arrays, the footprint and the lookup cache are replaced wholesale.
func (p *Process) setVMAs(ranges []mem.Range) {
	p.vmas = nil
	p.footprint = 0
	p.lastVMA = nil
	for _, r := range ranges {
		if !mem.Aligned(r.Start, mem.Page4K) || !mem.Aligned(r.End, mem.Page4K) {
			panic(fmt.Sprintf("vmm: VMA %v not page aligned", r))
		}
		base2M := mem.PageBase(r.Start, mem.Page2M)
		regions := (uint64(r.End-base2M) + uint64(mem.Page2M) - 1) >> 21
		p.vmas = append(p.vmas, &vma{
			r:         r,
			state:     make([]pageState, r.Len()>>12),
			touched:   make([]bool, r.Len()>>12),
			lastUse2M: make([]uint64, regions),
			base2M:    base2M,
			node2M:    make([]int32, regions),
		})
		p.footprint += r.Len()
	}
}

// validateRanges refuses VMA geometry an address space cannot hold: empty,
// inverted or unaligned VMAs, and VMAs reaching past mem.VirtAddrLimit,
// which the page table cannot tell from lower ones. AddProcess panics with
// its error; the API paths that must reject bad geometry gracefully
// (tenants, exec, snapshot restore) return it.
func validateRanges(ranges []mem.Range) error {
	for _, r := range ranges {
		if r.End <= r.Start {
			return fmt.Errorf("VMA %#x-%#x is empty or inverted", uint64(r.Start), uint64(r.End))
		}
		if r.End > mem.VirtAddrLimit {
			return fmt.Errorf("VMA %#x-%#x ends past the %#x address-space limit", uint64(r.Start), uint64(r.End), uint64(mem.VirtAddrLimit))
		}
		if !mem.Aligned(r.Start, mem.Page4K) || !mem.Aligned(r.End, mem.Page4K) {
			return fmt.Errorf("VMA %#x-%#x not page aligned", uint64(r.Start), uint64(r.End))
		}
	}
	return nil
}

// Footprint returns the total VMA bytes (the denominator for promotion
// budgets and utility curves).
func (p *Process) Footprint() uint64 { return p.footprint }

// regions2M returns the exact number of 2MB regions the address space
// spans: the sum of the per-VMA lastUse2M slot counts, each of which
// already rounds partial regions up. Footprint()/2MB under-counts whenever
// a VMA is not a whole multiple of 2MB — the NUMA local-first capacity bug.
func (p *Process) regions2M() int {
	n := 0
	for _, v := range p.vmas {
		n += len(v.lastUse2M)
	}
	return n
}

// HugeBytes returns the bytes currently backed by huge pages.
func (p *Process) HugeBytes() uint64 {
	return uint64(len(p.huge2M))*uint64(mem.Page2M) + uint64(len(p.huge1G))*uint64(mem.Page1G)
}

// HugePages2M returns the count of 2MB mappings.
func (p *Process) HugePages2M() int { return len(p.huge2M) }

// Ranges returns the process's VMAs (the OS policies scan these).
func (p *Process) Ranges() []mem.Range {
	rs := make([]mem.Range, len(p.vmas))
	for i, v := range p.vmas {
		rs[i] = v.r
	}
	return rs
}

// vmaOf finds the VMA containing a (nil if outside every VMA). The last hit
// is cached: streams exhibit long same-VMA runs, so the common case is one
// range check instead of a linear scan.
func (p *Process) vmaOf(a mem.VirtAddr) *vma {
	if v := p.lastVMA; v != nil && v.r.Contains(a) {
		return v
	}
	for _, v := range p.vmas {
		if v.r.Contains(a) {
			p.lastVMA = v
			return v
		}
	}
	return nil
}

// hugeLastUseAt returns the last-use timestamp of the 2MB region containing
// base (0 if never recorded or outside every VMA).
func (p *Process) hugeLastUseAt(base mem.VirtAddr) uint64 {
	base = mem.PageBase(base, mem.Page2M)
	if v := p.vmaOf(base); v != nil {
		return v.lastUse2M[v.slot2M(base)]
	}
	return 0
}

// clearHugeLastUse resets the region's timestamp to "never" (demotion and
// 1GB absorption drop the old 2MB mapping's history).
func (p *Process) clearHugeLastUse(base mem.VirtAddr) {
	base = mem.PageBase(base, mem.Page2M)
	if v := p.vmaOf(base); v != nil {
		v.lastUse2M[v.slot2M(base)] = 0
	}
}

// StateOf reports the mapping state of the 4KB page containing a.
func (p *Process) StateOf(a mem.VirtAddr) (mem.PageSize, bool) {
	v := p.vmaOf(a)
	if v == nil {
		return 0, false
	}
	switch v.stateOf(a) {
	case state4K:
		return mem.Page4K, true
	case state2M:
		return mem.Page2M, true
	case state1G:
		return mem.Page1G, true
	}
	return 0, false
}

// IsHuge2M reports whether the 2MB region at base is huge-mapped.
func (p *Process) IsHuge2M(base mem.VirtAddr) bool {
	_, ok := p.huge2M[mem.PageBase(base, mem.Page2M)]
	return ok
}

// regionEligible2M reports whether the 2MB region containing a lies fully
// within one VMA (so promotion is legal) and returns the region.
func (p *Process) regionEligible2M(a mem.VirtAddr) (mem.Region, *vma, bool) {
	r := mem.RegionOf(a, mem.Page2M)
	v := p.vmaOf(r.Base)
	if v == nil || r.End() > v.r.End {
		return r, nil, false
	}
	return r, v, true
}

// mappedPagesIn counts 4KB-mapped pages inside the region (promotion of a
// region first faults in its unmapped tail; we track how many were backed).
func (p *Process) mappedPagesIn(v *vma, r mem.Region) (mapped4k, huge int) {
	i := uint64(r.Base-v.r.Start) >> 12
	j := i + r.Size.BasePagesPer()
	for ; i < j; i++ {
		switch v.state[i] {
		case state4K:
			mapped4k++
		case state2M, state1G:
			huge++
		}
	}
	return
}

// BloatBytes returns the memory-bloat metric: bytes inside huge mappings
// whose 4KB pages the application never touched — memory a base-page
// policy would not have allocated at all (§2.1's THP bloat).
func (p *Process) BloatBytes() uint64 {
	var bloat uint64
	for _, v := range p.vmas {
		for i := range v.state {
			if (v.state[i] == state2M || v.state[i] == state1G) && !v.touched[i] {
				bloat += uint64(mem.Page4K)
			}
		}
	}
	return bloat
}

// TouchedBytes returns the bytes of 4KB pages the application accessed.
func (p *Process) TouchedBytes() uint64 {
	var n uint64
	for _, v := range p.vmas {
		for i := range v.touched {
			if v.touched[i] {
				n += uint64(mem.Page4K)
			}
		}
	}
	return n
}
