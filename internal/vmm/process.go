package vmm

import (
	"cmp"
	"fmt"
	"slices"

	"pccsim/internal/mem"
)

// pageState encodes the mapping state of one 4KB virtual page.
type pageState uint8

const (
	stateUnmapped pageState = iota
	state4K
	state2M // part of a 2MB huge mapping
	state1G // part of a 1GB giant mapping
)

// vma is one simulated virtual memory area with flat per-4KB-page and
// per-2MB-region arrays, so every lookup on the access hot path is index
// arithmetic. Together with its process's huge inventory they are the
// address space's one mapping record: the state array says at which size
// each page maps (and so how deep its walk is), and the accessed arrays
// hold the bits the page table's entries would hold.
type vma struct {
	r     mem.Range
	state []pageState
	// accessed is the PTE accessed bit of each 4KB page, indexed like
	// state: a walk of a 4KB-mapped page sets it, HawkEye's sampler tests
	// and clears it. A page mapped by a 2MB or 1GB leaf has no PTE, so its
	// bit is never set and never read (PTEBits hands out no bits for a huge
	// region); demotion and teardown clear whatever it held before.
	accessed []bool
	// pmd and pud are the accessed bits of the 2MB and 1GB regions the VMA
	// reaches — pmd indexed like lastUse2M, pud from the 1GB region holding
	// r.Start. Each is a window on its process's array, so VMAs that meet
	// inside a region share its bit, as they would share its page-table
	// entry.
	pmd []bool
	pud []bool
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

// slot1G maps an address inside the VMA to its pud index.
func (v *vma) slot1G(a mem.VirtAddr) uint64 { return uint64(a)>>30 - uint64(v.r.Start)>>30 }

// noteUse2M timestamps the 2MB region containing a (hot path: one shift and
// an indexed store, no hashing).
func (v *vma) noteUse2M(a mem.VirtAddr, now uint64) { v.lastUse2M[v.slot2M(a)] = now }

// walk sets the accessed bits a hardware walk of address a — the 4KB page
// at index i, mapped by a leaf of the given size — sets, and returns the PMD
// and PUD bits as they were before it: the cold-miss filter asks whether the
// region was warm before this walk. A walk to a 1GB leaf reads no PMD entry
// (pmd reads false); only a walk to a 4KB leaf sets the page's PTE bit.
func (v *vma) walk(a mem.VirtAddr, i uint64, size mem.PageSize) (pmd, pud bool) {
	bit := &v.pud[v.slot1G(a)]
	pud, *bit = *bit, true
	if size == mem.Page1G {
		return false, pud
	}
	bit = &v.pmd[v.slot2M(a)]
	pmd, *bit = *bit, true
	if size == mem.Page4K {
		v.accessed[i] = true
	}
	return pmd, pud
}

// map4K maps the unmapped 4KB page at index i: a base-page fault. Its PTE
// accessed bit is already clear: only walks of 4KB-mapped pages set it, and
// teardown, the only way back to unmapped, clears it.
func (v *vma) map4K(i uint64) { v.state[i] = state4K }

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

// Process is one simulated address space: its VMAs, huge page inventory and
// runtime accounting. Each mapping transition — fault (vma.map4K), 2MB
// mapping, demotion, 1GB mapping, teardown — is one method that updates the
// VMA state, the accessed bits and the huge inventory together.
type Process struct {
	ID   int
	Name string

	vmas []*vma
	// pmd and pud back the VMAs' region accessed bits: one per 2MB and per
	// 1GB region some VMA reaches, in address order.
	pmd       []bool
	pud       []bool
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

// newProcess builds an empty address space over the given VMAs, which must
// not overlap.
func newProcess(id int, name string, ranges []mem.Range, baseCPA float64) *Process {
	p := &Process{
		ID:      id,
		Name:    name,
		BaseCPA: baseCPA,
		huge2M:  map[mem.VirtAddr]uint64{},
		huge1G:  map[mem.VirtAddr]uint64{},
	}
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
			accessed:  make([]bool, r.Len()>>12),
			lastUse2M: make([]uint64, regions),
			base2M:    base2M,
			node2M:    make([]int32, regions),
		})
		p.footprint += r.Len()
	}
	var windows [][]bool
	p.pmd, windows = regionBits(p.vmas, 21)
	for i, v := range p.vmas {
		v.pmd = windows[i]
	}
	p.pud, windows = regionBits(p.vmas, 30)
	for i, v := range p.vmas {
		v.pud = windows[i]
	}
	return p
}

// regionBits allocates one accessed bit per 2^shift-byte region the VMAs
// reach, in address order, and returns it with each VMA's window on it: the
// bits of the regions the VMA reaches, from the one holding its start. VMAs
// that meet inside a region get the same bit. The VMAs must not overlap.
func regionBits(vmas []*vma, shift uint) ([]bool, [][]bool) {
	order := make([]int, len(vmas))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return cmp.Compare(vmas[i].r.Start, vmas[j].r.Start) })
	first := make([]uint64, len(vmas))
	var n, prevLast uint64
	for k, i := range order {
		lo, hi := uint64(vmas[i].r.Start)>>shift, uint64(vmas[i].r.End-1)>>shift
		first[i] = n
		if k > 0 && lo == prevLast {
			first[i]-- // shares its first region with the VMA before it
		}
		n = first[i] + hi - lo + 1
		prevLast = hi
	}
	bits := make([]bool, n)
	windows := make([][]bool, len(vmas))
	for i, v := range vmas {
		lo, hi := uint64(v.r.Start)>>shift, uint64(v.r.End-1)>>shift
		windows[i] = bits[first[i] : first[i]+hi-lo+1]
	}
	return bits, windows
}

// validateRanges refuses VMA geometry an address space cannot hold: empty,
// inverted or unaligned VMAs, VMAs reaching past mem.VirtAddrLimit (the
// modelled 4-level page table's reach), and VMAs that overlap in any order,
// since each 4KB page's state lives in the arrays of the one VMA holding it.
// AddProcess panics with its error; the API paths that must reject bad
// geometry gracefully (tenants, snapshot restore) return it.
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
	sorted := slices.Clone(ranges)
	slices.SortFunc(sorted, func(a, b mem.Range) int { return cmp.Compare(a.Start, b.Start) })
	for i := 1; i < len(sorted); i++ {
		if a, b := sorted[i-1], sorted[i]; b.Start < a.End {
			return fmt.Errorf("VMAs %#x-%#x and %#x-%#x overlap", uint64(a.Start), uint64(a.End), uint64(b.Start), uint64(b.End))
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

// map2M maps the 2MB region r of v as one leaf, promoted at tick now: a THP
// fault or a promotion, over unmapped and 4KB-mapped pages alike. The
// region's PMD accessed bit starts clear. Its pages' PTE bits stay as they
// were, unread while the region is huge; demotion clears them.
func (p *Process) map2M(v *vma, r mem.Region, now uint64) {
	v.setRange(r.Base, r.End(), state2M)
	v.pmd[v.slot2M(r.Base)] = false
	p.huge2M[r.Base] = now
}

// demote2M splits the 2MB leaf at base of v back into 4KB pages. The
// region's PMD bit and its 512 PTE bits start clear, and the region's
// promotion tick and last-use history go.
func (p *Process) demote2M(v *vma, base mem.VirtAddr) {
	v.setRange(base, base+mem.VirtAddr(mem.Page2M), state4K)
	i := uint64(base-v.r.Start) >> 12
	clear(v.accessed[i : i+mem.Page2M.BasePagesPer()])
	v.pmd[v.slot2M(base)] = false
	v.lastUse2M[v.slot2M(base)] = 0
	delete(p.huge2M, base)
}

// map1G maps the 1GB region r of v as one leaf, promoted at tick now,
// absorbing the 2MB leaves inside it, and returns how many it absorbed:
// their physical blocks are the caller's to free. The region's PUD accessed
// bit and every PMD bit beneath it start clear.
func (p *Process) map1G(v *vma, r mem.Region, now uint64) (absorbed int) {
	for base := range p.huge2M {
		if r.Contains(base) {
			delete(p.huge2M, base)
			v.lastUse2M[v.slot2M(base)] = 0
			absorbed++
		}
	}
	v.setRange(r.Base, r.End(), state1G)
	s := v.slot2M(r.Base)
	clear(v.pmd[s : s+uint64(mem.Page1G/mem.Page2M)])
	v.pud[v.slot1G(r.Base)] = false
	p.huge1G[r.Base] = now
	return absorbed
}

// teardown empties the address space and returns how many 2MB and 1GB
// leaves it unmapped, whose physical blocks the caller frees. It clears the
// accessed bits of what it unmaps — every PTE bit, the PMD bit of each 2MB
// leaf and the PUD bit of each 1GB leaf — while the PMD and PUD bits above
// 4KB mappings survive, as upper page-table levels survive an unmap. The
// touched, last-use and NUMA memo arrays are zeroed and the VMA lookup cache
// dropped; the geometry stays.
func (p *Process) teardown() (n2M, n1G int) {
	for base := range p.huge2M {
		v := p.vmaOf(base)
		v.pmd[v.slot2M(base)] = false
	}
	for base := range p.huge1G {
		v := p.vmaOf(base)
		v.pud[v.slot1G(base)] = false
	}
	n2M, n1G = len(p.huge2M), len(p.huge1G)
	clear(p.huge2M)
	clear(p.huge1G)
	for _, v := range p.vmas {
		clear(v.state)
		clear(v.touched)
		clear(v.accessed)
		clear(v.lastUse2M)
		clear(v.node2M)
	}
	p.lastVMA = nil
	return n2M, n1G
}

// PTEBits is a handle on the PTE accessed bits of the 4KB pages one VMA
// holds in one 2MB region, as a software scanner keeps it across a scan.
// The zero PTEBits stands for a region with no PTEs — mapped by a huge
// leaf, or outside every VMA — whose pages all read "not accessed".
type PTEBits struct {
	start mem.VirtAddr // address of bits[0]
	bits  []bool
}

// PTEBits returns the handle for the 2MB region containing a, within the
// VMA holding a. It stays valid until the region's mapping next changes;
// probes leave it valid.
func (p *Process) PTEBits(a mem.VirtAddr) PTEBits {
	v := p.vmaOf(a)
	if v == nil {
		return PTEBits{}
	}
	if st := v.stateOf(a); st == state2M || st == state1G {
		return PTEBits{}
	}
	return PTEBits{start: v.r.Start, bits: v.accessed}
}

// TestAndClear reports whether the PTE accessed bit of the 4KB page
// containing a is set, clearing it: the software sampling probe of the
// HawkEye model. a must lie in the handle's region and VMA. An unmapped
// page reads clear, since only walks of 4KB-mapped pages set the bit and
// teardown clears it.
func (b PTEBits) TestAndClear(a mem.VirtAddr) bool {
	if b.bits == nil {
		return false
	}
	i := uint64(a-b.start) >> 12
	if !b.bits[i] {
		return false
	}
	b.bits[i] = false
	return true
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
