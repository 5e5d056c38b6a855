// Package ptw models the x86-64 4-level radix page table, the hardware page
// table walker that services last-level TLB misses, the per-entry accessed
// bits the PCC's cold-miss filter relies on, and a page walk cache (PWC)
// that shortens walks by caching upper-level entries.
//
// Terminology follows Linux: the levels from root to leaf are PGD (level 4,
// 512GB per entry), PUD (level 3, 1GB per entry — where 1GB pages map), PMD
// (level 2, 2MB per entry — where 2MB pages map), and PTE (level 1, 4KB).
package ptw

import (
	"fmt"

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
