package vmm

// The x86-64 4-level radix page table this package's flat mapping arrays
// replaced, kept unchanged as the reference they are checked against
// (TestMappingMatchesReference): a Table maps pages at 4KB, 2MB and 1GB
// and keeps the hardware accessed bit of every entry.
//
// Terminology follows Linux: the levels from root to leaf are PGD (level 4,
// 512GB per entry), PUD (level 3, 1GB per entry — where 1GB pages map), PMD
// (level 2, 2MB per entry — where 2MB pages map), and PTE (level 1, 4KB).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pccsim/internal/mem"
)

// Level identifies a page table level.
type Level int

const (
	// PTE is the leaf level mapping 4KB pages.
	PTE Level = 1
	// PMD maps 2MB per entry; 2MB huge pages terminate here.
	PMD Level = 2
	// PUD maps 1GB per entry; 1GB pages terminate here.
	PUD Level = 3
	// PGD is the root level, 512GB per entry.
	PGD Level = 4
)

func (l Level) String() string {
	switch l {
	case PTE:
		return "PTE"
	case PMD:
		return "PMD"
	case PUD:
		return "PUD"
	case PGD:
		return "PGD"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// shift returns the right-shift that yields the entry index space for l.
func (l Level) shift() uint { return 12 + 9*uint(l-1) }

// node is one page-table page: 512 entries plus their accessed bits.
// Children are identified by index into the owning Table's node arena;
// 0 means "no child" (slot 0 is always the root, which can never be a
// child). Child nodes are allocated lazily as the simulated address space
// is touched.
type node struct {
	children [512]int32 // 0 at leaf level or when not yet populated
	accessed [512]bool  // hardware accessed bit per entry
	present  [512]bool  // entry exists (backed memory)
	isLeaf   [512]bool  // entry terminates the walk (huge page or PTE)
}

// Table is one address space's page table. It tracks, per 4KB/2MB/1GB
// region, whether the mapping exists and at what size, and maintains
// accessed bits at every level exactly like the hardware: a walk sets the
// accessed bit of every entry it traverses.
//
// Nodes are slab-allocated in one contiguous arena and linked by int32
// indices instead of pointers: the PGD→PTE walk — the simulator's hottest
// miss path — becomes index arithmetic over a single slice, so the four
// dependent loads stay inside one allocation instead of chasing pointers
// across the heap, and the table adds no per-node GC scan work (the node
// struct is pointer-free).
type Table struct {
	nodes []node  // nodes[0] is the PGD root
	free  []int32 // slots recycled from collapsed subtrees

	// mapped pages by size, for accounting.
	count4K uint64
	count2M uint64
	count1G uint64
}

// NewTable returns an empty page table.
func NewTable() *Table {
	return &Table{nodes: make([]node, 1, 64)}
}

// alloc returns a zeroed node slot, reusing collapsed-subtree slots before
// growing the arena. Callers must re-derive any *node pointers after calling
// alloc: growing the arena may move it.
func (t *Table) alloc() int32 {
	if n := len(t.free); n > 0 {
		ci := t.free[n-1]
		t.free = t.free[:n-1]
		return ci
	}
	t.nodes = append(t.nodes, node{})
	return int32(len(t.nodes) - 1)
}

// freeNode zeroes a collapsed node's slot and makes it reusable.
func (t *Table) freeNode(ci int32) {
	t.nodes[ci] = node{}
	t.free = append(t.free, ci)
}

func index(a mem.VirtAddr, l Level) int {
	return int((uint64(a) >> l.shift()) & 0x1ff)
}

// Map installs a mapping of the given size covering address a. The address
// is aligned down to the page boundary. Mapping a 2MB page removes any 4KB
// leaf table underneath (the PMD entry becomes a leaf), modelling promotion
// collapsing PTEs; mapping 4KB pages under a region currently mapped huge
// first splits the huge mapping (demotion is handled by Unmap+Map by the
// caller; Map panics on conflicting huge leaf to surface policy bugs).
func (t *Table) Map(a mem.VirtAddr, size mem.PageSize) {
	a = mem.PageBase(a, size)
	leafLevel := leafFor(size)
	n := &t.nodes[t.descend(a, size)]
	i := index(a, leafLevel)
	if n.present[i] && n.isLeaf[i] {
		return // already mapped at this size
	}
	if n.children[i] != 0 {
		// Collapsing: a finer-grained subtree existed (e.g. PTEs being
		// replaced by one huge PMD entry). Drop it and adjust counts.
		t.subtractSubtree(n.children[i], leafLevel-1)
		n.children[i] = 0
	}
	n.present[i] = true
	n.isLeaf[i] = true
	n.accessed[i] = false
	t.addCount(size, 1)
}

// descend walks from the root to the node holding a's entry at the level
// where pages of the given size map, allocating missing intermediate nodes,
// and returns that node's slot. It panics on a huge leaf above that level.
func (t *Table) descend(a mem.VirtAddr, size mem.PageSize) int32 {
	leafLevel := leafFor(size)
	ni := int32(0)
	for l := PGD; l > leafLevel; l-- {
		i := index(a, l)
		n := &t.nodes[ni]
		if n.isLeaf[i] {
			panic(fmt.Sprintf("ptw: mapping %v at %#x conflicts with huge leaf at %v", size, uint64(a), l))
		}
		if n.children[i] == 0 {
			ci := t.alloc()
			n = &t.nodes[ni] // alloc may have grown the arena
			n.children[i] = ci
			n.present[i] = true
		}
		ni = n.children[i]
	}
	return ni
}

// MapRegion4K maps every unmapped 4KB page of the 2MB region containing a
// in one descent, leaving the table exactly as a Map(page, mem.Page4K) per
// page of the region in address order would: the same node slot, the same
// counts, new entries' accessed bits false, mapped pages untouched.
// Demotion calls it after unmapping the 2MB leaf.
func (t *Table) MapRegion4K(a mem.VirtAddr) {
	a = mem.PageBase(a, mem.Page2M)
	n := &t.nodes[t.descend(a, mem.Page4K)]
	for i := range n.present {
		if n.present[i] && n.isLeaf[i] {
			continue
		}
		n.present[i] = true
		n.isLeaf[i] = true
		n.accessed[i] = false
		t.count4K++
	}
}

// subtractSubtree removes the page counts contributed by the subtree rooted
// at slot ci, whose entries live at level l, and recycles its node slots.
func (t *Table) subtractSubtree(ci int32, l Level) {
	n := &t.nodes[ci]
	for i := 0; i < 512; i++ {
		if !n.present[i] {
			continue
		}
		if n.isLeaf[i] {
			t.addCount(sizeFor(l), ^uint64(0)) // -1
		} else if n.children[i] != 0 {
			t.subtractSubtree(n.children[i], l-1)
		}
	}
	t.freeNode(ci)
}

func (t *Table) addCount(size mem.PageSize, delta uint64) {
	switch size {
	case mem.Page4K:
		t.count4K += delta
	case mem.Page2M:
		t.count2M += delta
	case mem.Page1G:
		t.count1G += delta
	}
}

// Unmap removes the leaf mapping of the given size at a (aligned down). It
// is a no-op if no such mapping exists. Used for demotion: unmap the 2MB
// leaf, then MapRegion4K the constituent 4KB pages.
func (t *Table) Unmap(a mem.VirtAddr, size mem.PageSize) {
	a = mem.PageBase(a, size)
	leafLevel := leafFor(size)
	ni := int32(0)
	for l := PGD; l > leafLevel; l-- {
		i := index(a, l)
		ni = t.nodes[ni].children[i]
		if ni == 0 {
			return
		}
	}
	n := &t.nodes[ni]
	i := index(a, leafLevel)
	if n.present[i] && n.isLeaf[i] {
		n.present[i] = false
		n.isLeaf[i] = false
		n.accessed[i] = false
		t.addCount(size, ^uint64(0))
	}
}

// leafFor returns the level at which a page of the given size terminates.
func leafFor(size mem.PageSize) Level {
	switch size {
	case mem.Page4K:
		return PTE
	case mem.Page2M:
		return PMD
	case mem.Page1G:
		return PUD
	}
	panic(fmt.Sprintf("ptw: invalid page size %v", size))
}

// sizeFor is the inverse of leafFor.
func sizeFor(l Level) mem.PageSize {
	switch l {
	case PTE:
		return mem.Page4K
	case PMD:
		return mem.Page2M
	case PUD:
		return mem.Page1G
	}
	panic(fmt.Sprintf("ptw: level %v has no page size", l))
}

// MappedSize returns the page size a is currently mapped with, or (0,false)
// if unmapped.
func (t *Table) MappedSize(a mem.VirtAddr) (mem.PageSize, bool) {
	ni := int32(0)
	for l := PGD; l >= PTE; l-- {
		n := &t.nodes[ni]
		i := index(a, l)
		if !n.present[i] {
			return 0, false
		}
		if n.isLeaf[i] {
			switch l {
			case PUD:
				return mem.Page1G, true
			case PMD:
				return mem.Page2M, true
			case PTE:
				return mem.Page4K, true
			default:
				return 0, false
			}
		}
		if n.children[i] == 0 {
			return 0, false
		}
		ni = n.children[i]
	}
	return 0, false
}

// Counts returns the number of mapped pages at each size.
func (t *Table) Counts() (p4k, p2m, p1g uint64) {
	return t.count4K, t.count2M, t.count1G
}

// WalkInfo reports what a hardware walk of address a observed. The accessed
// bits are sampled *before* the walk sets them: the PCC's cold-miss filter
// needs to know whether the region had been touched before this walk.
type WalkInfo struct {
	// Size is the page size the leaf entry maps.
	Size mem.PageSize
	// Levels is the number of page table levels the walker had to read
	// from memory (after PWC hits are discounted by the Walker).
	Levels int
	// PUDWasAccessed is the accessed bit of the 1GB-level entry before
	// this walk (gates 1GB PCC insertion).
	PUDWasAccessed bool
	// PMDWasAccessed is the accessed bit of the 2MB-level entry before
	// this walk (gates 2MB PCC insertion). False when the leaf is at PUD.
	PMDWasAccessed bool
	// Mapped is false if the address had no translation (a simulated page
	// fault; the caller maps it and retries).
	Mapped bool
}

// Walk performs a full hardware page table walk for a, setting accessed bits
// along the way, and returns what it saw. The raw number of levels touched
// is returned; the Walker applies the PWC to discount cached upper levels.
func (t *Table) Walk(a mem.VirtAddr) WalkInfo {
	info := WalkInfo{}
	nodes := t.nodes
	ni := int32(0)
	for l := PGD; l >= PTE; l-- {
		n := &nodes[ni]
		i := index(a, l)
		info.Levels++
		if !n.present[i] {
			return info // not mapped: page fault
		}
		// Sample the accessed bit before setting it: the filter asks
		// "was this region warm before this walk?".
		switch l {
		case PUD:
			info.PUDWasAccessed = n.accessed[i]
		case PMD:
			info.PMDWasAccessed = n.accessed[i]
		}
		n.accessed[i] = true
		if n.isLeaf[i] {
			info.Mapped = true
			info.Size = sizeFor(l)
			return info
		}
		if n.children[i] == 0 {
			return info
		}
		ni = n.children[i]
	}
	return info
}

// Block is a handle to one PTE-level node, as LeafBlock returns it: the 512
// 4KB entries of one 2MB region. The zero Block stands for "no PTE node".
// A handle stays valid until the table's mappings next change (Map, Unmap,
// MapRegion4K or SetState); accessed-bit updates leave it valid.
type Block int32

// LeafBlock returns the PTE-level node of the 2MB region containing a, or
// the zero Block when the region has none (unmapped, or mapped by a huge
// leaf). Software scanners resolve a region once with it and then probe its
// pages with TestAndClearAccessedIn, instead of walking from the root per
// page.
func (t *Table) LeafBlock(a mem.VirtAddr) Block {
	ni := int32(0)
	for l := PGD; l > PTE; l-- {
		n := &t.nodes[ni]
		i := index(a, l)
		if !n.present[i] || n.isLeaf[i] || n.children[i] == 0 {
			return 0
		}
		ni = n.children[i]
	}
	return Block(ni)
}

// TestAndClearAccessedIn reports whether the PTE for the 4KB page containing
// a is present with its accessed bit set, clearing the bit — the software
// sampling probe of the HawkEye model. b must be LeafBlock of a's 2MB
// region; the zero Block reads "not accessed".
func (t *Table) TestAndClearAccessedIn(b Block, a mem.VirtAddr) bool {
	if b == 0 {
		return false
	}
	n := &t.nodes[b]
	i := index(a, PTE)
	if !n.present[i] || !n.accessed[i] {
		return false
	}
	n.accessed[i] = false
	return true
}

// NodeState is the exported mirror of one page-table node for serialization.
// The layout matches node exactly; keeping a separate exported struct means
// gob sees only exported fields while the arena node itself stays private.
type NodeState struct {
	Children [512]int32
	Accessed [512]bool
	Present  [512]bool
	IsLeaf   [512]bool
}

// TableState is the full serializable state of one address space's page
// table: the node arena (including every accessed bit — the PCC cold filter
// and HawkEye sampling both read them), the free list, and the per-size
// mapping counts.
type TableState struct {
	Nodes   []NodeState
	Free    []int32
	Count4K uint64
	Count2M uint64
	Count1G uint64
}

// State returns a deep copy of the table's state.
func (t *Table) State() TableState {
	s := TableState{
		Nodes:   make([]NodeState, len(t.nodes)),
		Free:    append([]int32(nil), t.free...),
		Count4K: t.count4K,
		Count2M: t.count2M,
		Count1G: t.count1G,
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		s.Nodes[i] = NodeState{
			Children: n.children,
			Accessed: n.accessed,
			Present:  n.present,
			IsLeaf:   n.isLeaf,
		}
	}
	return s
}

// SetState overwrites the table from a snapshot. The arena is rebuilt
// wholesale; child indices are validated so a corrupt snapshot cannot make
// later walks index out of the arena.
func (t *Table) SetState(s TableState) error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("ptw: table state has no root node")
	}
	nodes := make([]node, len(s.Nodes))
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		for _, ci := range ns.Children {
			if ci < 0 || int(ci) >= len(s.Nodes) {
				return fmt.Errorf("ptw: node %d has child index %d outside arena of %d", i, ci, len(s.Nodes))
			}
		}
		nodes[i] = node{
			children: ns.Children,
			accessed: ns.Accessed,
			present:  ns.Present,
			isLeaf:   ns.IsLeaf,
		}
	}
	for _, fi := range s.Free {
		if fi <= 0 || int(fi) >= len(s.Nodes) {
			return fmt.Errorf("ptw: free list slot %d outside arena of %d", fi, len(s.Nodes))
		}
	}
	t.nodes = nodes
	t.free = append([]int32(nil), s.Free...)
	t.count4K = s.Count4K
	t.count2M = s.Count2M
	t.count1G = s.Count1G
	return nil
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{PTE, PMD, PUD, PGD} {
		if l.String() == "" {
			t.Errorf("level %d must stringify", int(l))
		}
	}
}

func TestMapWalk4K(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(0x12345000)
	info := tb.Walk(a)
	if info.Mapped {
		t.Fatal("walk of empty table must fault")
	}
	tb.Map(a, mem.Page4K)
	info = tb.Walk(a)
	if !info.Mapped || info.Size != mem.Page4K {
		t.Fatalf("walk = %+v", info)
	}
	if info.Levels != 4 {
		t.Errorf("4KB walk reads 4 levels, got %d", info.Levels)
	}
}

func TestMapWalk2M(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(5 << 21)
	tb.Map(a, mem.Page2M)
	info := tb.Walk(a + 0x1234)
	if !info.Mapped || info.Size != mem.Page2M {
		t.Fatalf("walk = %+v", info)
	}
	if info.Levels != 3 {
		t.Errorf("2MB walk reads 3 levels, got %d", info.Levels)
	}
}

func TestMapWalk1G(t *testing.T) {
	tb := NewTable()
	tb.Map(2<<30, mem.Page1G)
	info := tb.Walk(2<<30 + 12345)
	if !info.Mapped || info.Size != mem.Page1G {
		t.Fatalf("walk = %+v", info)
	}
	if info.Levels != 2 {
		t.Errorf("1GB walk reads 2 levels, got %d", info.Levels)
	}
}

func TestAccessedBitsPrewalkSampling(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(7 << 21)
	tb.Map(a, mem.Page4K)
	tb.Map(a+0x1000, mem.Page4K)

	info := tb.Walk(a)
	if info.PMDWasAccessed {
		t.Error("first walk in region must see cold PMD bit")
	}
	info = tb.Walk(a + 0x1000)
	if !info.PMDWasAccessed {
		t.Error("second walk in region must see warm PMD bit")
	}
	if !info.PUDWasAccessed {
		t.Error("second walk must see warm PUD bit too")
	}
}

func TestMapCollapsesPTEs(t *testing.T) {
	tb := NewTable()
	base := mem.VirtAddr(3 << 21)
	for i := 0; i < 512; i++ {
		tb.Map(base+mem.VirtAddr(i*0x1000), mem.Page4K)
	}
	p4, p2, _ := tb.Counts()
	if p4 != 512 || p2 != 0 {
		t.Fatalf("counts = %d/%d", p4, p2)
	}
	// Promotion: map the whole region huge; the PTE subtree collapses.
	tb.Map(base, mem.Page2M)
	p4, p2, _ = tb.Counts()
	if p4 != 0 || p2 != 1 {
		t.Fatalf("post-collapse counts = %d/%d, want 0/1", p4, p2)
	}
	if s, ok := tb.MappedSize(base + 0x5000); !ok || s != mem.Page2M {
		t.Errorf("MappedSize = %v,%v", s, ok)
	}
}

func TestMapIdempotent(t *testing.T) {
	tb := NewTable()
	tb.Map(0x1000, mem.Page4K)
	tb.Map(0x1000, mem.Page4K)
	p4, _, _ := tb.Counts()
	if p4 != 1 {
		t.Errorf("remap must not double count, got %d", p4)
	}
}

func TestUnmapAndRemapDemotion(t *testing.T) {
	tb := NewTable()
	base := mem.VirtAddr(9 << 21)
	tb.Map(base, mem.Page2M)
	tb.Unmap(base, mem.Page2M)
	if _, ok := tb.MappedSize(base); ok {
		t.Fatal("unmapped region must not resolve")
	}
	// Demotion: remap as base pages.
	for i := 0; i < 512; i++ {
		tb.Map(base+mem.VirtAddr(i*0x1000), mem.Page4K)
	}
	p4, p2, _ := tb.Counts()
	if p4 != 512 || p2 != 0 {
		t.Fatalf("post-demotion counts = %d/%d", p4, p2)
	}
}

func TestUnmapMissingIsNoop(t *testing.T) {
	tb := NewTable()
	tb.Unmap(0x4000, mem.Page4K) // must not panic
	tb.Unmap(2<<21, mem.Page2M)
	p4, p2, p1 := tb.Counts()
	if p4+p2+p1 != 0 {
		t.Error("counts must stay zero")
	}
}

func TestMapConflictPanics(t *testing.T) {
	tb := NewTable()
	tb.Map(0, mem.Page2M)
	defer func() {
		if recover() == nil {
			t.Fatal("mapping 4K under a huge leaf must panic")
		}
	}()
	tb.Map(0x1000, mem.Page4K)
}

func TestMappedSize(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.MappedSize(0x1000); ok {
		t.Error("empty table must not resolve")
	}
	tb.Map(0x1000, mem.Page4K)
	if s, ok := tb.MappedSize(0x1fff); !ok || s != mem.Page4K {
		t.Errorf("= %v,%v", s, ok)
	}
	if _, ok := tb.MappedSize(0x2000); ok {
		t.Error("adjacent page must not resolve")
	}
}

// TestTestAndClearAccessedSampleAndClear pins the software sampling probe:
// a fresh mapping reads cold, a walk sets the PTE bit, the probe reports and
// clears it, and a re-walk sets it again.
func TestTestAndClearAccessedSampleAndClear(t *testing.T) {
	tb := NewTable()
	a := mem.VirtAddr(0x1000)
	tb.Map(a, mem.Page4K)
	b := tb.LeafBlock(a)
	if b == 0 {
		t.Fatal("a 4KB-mapped region must have a PTE block")
	}
	if tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("fresh mapping must be cold")
	}
	tb.Walk(a)
	if !tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("walk must set the PTE accessed bit")
	}
	if tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("the probe must clear the bit")
	}
	tb.Walk(a)
	if !tb.TestAndClearAccessedIn(b, a) {
		t.Fatal("re-walk must re-set the bit")
	}
}

// TestLeafBlockWithoutPTENode: a region with no PTE node — unmapped, mapped
// by a 2MB or 1GB leaf — has the zero Block, which reads "not accessed"; so
// does an unmapped page inside a populated block, and a walk of a neighbour
// does not set it.
func TestLeafBlockWithoutPTENode(t *testing.T) {
	tb := NewTable()
	huge2M := mem.VirtAddr(4 << 21)
	tb.Map(huge2M, mem.Page2M)
	tb.Walk(huge2M)
	huge1G := mem.VirtAddr(3 << 30)
	tb.Map(huge1G, mem.Page1G)
	tb.Walk(huge1G)
	for _, a := range []mem.VirtAddr{9 << 21, 5 << 30, huge2M + 0x3000, huge1G + 7<<21} {
		if b := tb.LeafBlock(a); b != 0 {
			t.Errorf("LeafBlock(%#x) = %d, want the zero Block", uint64(a), b)
		}
		if tb.TestAndClearAccessedIn(0, a) {
			t.Errorf("the zero Block must read not accessed at %#x", uint64(a))
		}
	}
	page := mem.VirtAddr(7<<21 + 0x5000)
	tb.Map(page, mem.Page4K)
	tb.Walk(page)
	hole := page + 0x1000
	tb.Walk(hole)
	if tb.TestAndClearAccessedIn(tb.LeafBlock(hole), hole) {
		t.Error("an unmapped page must read not accessed")
	}
	if !tb.TestAndClearAccessedIn(tb.LeafBlock(page), page) {
		t.Error("the mapped neighbour must read accessed")
	}
}

// mapRegionPerPage is the definition MapRegion4K must match: one Map per
// 4KB page of the region, in address order.
func mapRegionPerPage(tb *Table, base mem.VirtAddr) {
	for i := 0; i < 512; i++ {
		tb.Map(base+mem.VirtAddr(i)<<12, mem.Page4K)
	}
}

func cloneTable(t *testing.T, tb *Table) *Table {
	t.Helper()
	c := NewTable()
	if err := c.SetState(tb.State()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMapRegion4KMatchesPerPageMap: on random tables — partly mapped
// regions with accessed bits set, collapsed regions whose PTE node went to
// the free list, huge leaves elsewhere — MapRegion4K leaves exactly the
// TableState of 512 Map calls: the same node slot (free-list reuse after a
// collapse included), the same counts, the same accessed bits.
func TestMapRegion4KMatchesPerPageMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		region := func() mem.VirtAddr {
			// Eight 2MB regions in two 1GB spans, so PUD and PMD nodes are
			// shared and also created fresh.
			return mem.VirtAddr(rng.Intn(2))<<30 + mem.VirtAddr(rng.Intn(8))<<21
		}
		for i := 0; i < 200; i++ {
			r := region()
			page := r + mem.VirtAddr(rng.Intn(512))<<12
			size, mapped := tb.MappedSize(r)
			huge := mapped && size == mem.Page2M
			switch rng.Intn(5) {
			case 0, 1:
				if !huge {
					tb.Map(page, mem.Page4K)
					if rng.Intn(2) == 0 {
						tb.Walk(page) // a mapped page with its accessed bit set
					}
				}
			case 2:
				tb.Map(r, mem.Page2M) // collapses any PTE node
			case 3:
				tb.Unmap(r, mem.Page2M)
			case 4:
				tb.Walk(page)
			}
		}
		// Remap every region that is not huge (after unmapping half the
		// huge ones, the demotion path), comparing against the reference.
		for i := 0; i < 16; i++ {
			r := mem.VirtAddr(i/8)<<30 + mem.VirtAddr(i%8)<<21
			if size, ok := tb.MappedSize(r); ok && size == mem.Page2M {
				if rng.Intn(2) == 0 {
					continue
				}
				tb.Unmap(r, mem.Page2M)
			}
			want := cloneTable(t, tb)
			mapRegionPerPage(want, r)
			tb.MapRegion4K(r + mem.VirtAddr(rng.Intn(512))<<12)
			if !reflect.DeepEqual(tb.State(), want.State()) {
				t.Fatalf("seed %d region %#x: MapRegion4K state differs from 512 Map calls", seed, uint64(r))
			}
		}
	}
}

// TestMapRegion4KReusesFreedSlot is the demotion sequence spelled out: a
// collapse frees the region's PTE node, and the remap takes that slot back
// from the free list, as the first per-page Map would.
func TestMapRegion4KReusesFreedSlot(t *testing.T) {
	tb := NewTable()
	base := mem.VirtAddr(5 << 21)
	mapRegionPerPage(tb, base)
	slot := tb.LeafBlock(base)
	tb.Map(base, mem.Page2M)
	if len(tb.free) != 1 {
		t.Fatalf("collapse left %d free slots, want 1", len(tb.free))
	}
	tb.Unmap(base, mem.Page2M)
	want := cloneTable(t, tb)
	mapRegionPerPage(want, base)
	tb.MapRegion4K(base)
	if got := tb.LeafBlock(base); got != slot {
		t.Errorf("remap took slot %d, want the freed slot %d", got, slot)
	}
	if !reflect.DeepEqual(tb.State(), want.State()) {
		t.Error("remap state differs from 512 Map calls")
	}
	if p4, p2, _ := tb.Counts(); p4 != 512 || p2 != 0 {
		t.Errorf("counts = %d/%d, want 512/0", p4, p2)
	}
}

// TestMapRegion4KConflictPanics: under a 1GB leaf the remap panics like
// the first per-page Map.
func TestMapRegion4KConflictPanics(t *testing.T) {
	tb := NewTable()
	tb.Map(0, mem.Page1G)
	defer func() {
		if recover() == nil {
			t.Fatal("remapping under a huge leaf must panic")
		}
	}()
	tb.MapRegion4K(3 << 21)
}

func TestCountsNeverNegativeProperty(t *testing.T) {
	// Property: random map/unmap/promote sequences keep counts consistent
	// with a shadow model.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		shadow4 := map[mem.VirtAddr]bool{}
		shadow2 := map[mem.VirtAddr]bool{}
		for i := 0; i < 300; i++ {
			region := mem.VirtAddr(rng.Intn(8)) << 21
			page := region + mem.VirtAddr(rng.Intn(512))<<12
			switch rng.Intn(3) {
			case 0: // map 4K if region not huge
				if !shadow2[region] {
					tb.Map(page, mem.Page4K)
					shadow4[page] = true
				}
			case 1: // promote region
				tb.Map(region, mem.Page2M)
				shadow2[region] = true
				for p := range shadow4 {
					if mem.PageBase(p, mem.Page2M) == region {
						delete(shadow4, p)
					}
				}
			case 2: // demote region
				if shadow2[region] {
					tb.Unmap(region, mem.Page2M)
					delete(shadow2, region)
				}
			}
		}
		p4, p2, _ := tb.Counts()
		return p4 == uint64(len(shadow4)) && p2 == uint64(len(shadow2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
