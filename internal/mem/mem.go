// Package mem defines the fundamental address-space vocabulary shared by the
// whole simulator: virtual and physical addresses, the three x86-64 page
// sizes, and the alignment / region arithmetic used by the TLBs, the page
// table walker, the promotion candidate cache and the OS policies.
//
// Everything in the simulator works in terms of these types so that a 4KB
// page number, a 2MB region tag and a 1GB region tag can never be confused
// with one another.
package mem

import "fmt"

// VirtAddr is a byte-granular virtual address in a simulated address space.
type VirtAddr uint64

// PhysAddr is a byte-granular physical address in the simulated machine.
type PhysAddr uint64

// PageSize enumerates the page sizes supported by the simulated hardware.
// The values are the actual byte sizes so they can be used directly in
// address arithmetic.
type PageSize uint64

const (
	// Page4K is the x86-64 base page size.
	Page4K PageSize = 4 << 10
	// Page2M is the x86-64 huge page size mapped at the PMD level.
	Page2M PageSize = 2 << 20
	// Page1G is the x86-64 giant page size mapped at the PUD level.
	Page1G PageSize = 1 << 30
)

// Shift returns log2 of the page size.
func (s PageSize) Shift() uint {
	switch s {
	case Page4K:
		return 12
	case Page2M:
		return 21
	case Page1G:
		return 30
	}
	panic(fmt.Sprintf("mem: invalid page size %d", uint64(s)))
}

// Valid reports whether s is one of the three supported page sizes.
func (s PageSize) Valid() bool {
	return s == Page4K || s == Page2M || s == Page1G
}

func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", uint64(s))
}

// BasePagesPer reports how many 4KB base pages one page of size s spans.
func (s PageSize) BasePagesPer() uint64 { return uint64(s) / uint64(Page4K) }

// PageNum is a page number for a specific page size; the size is implied by
// context (the structure holding it). It is a VirtAddr shifted right by the
// page-size shift.
type PageNum uint64

// PageNumber returns the page number of a for page size s.
func PageNumber(a VirtAddr, s PageSize) PageNum {
	return PageNum(uint64(a) >> s.Shift())
}

// PageBase returns the first address of the page of size s containing a.
func PageBase(a VirtAddr, s PageSize) VirtAddr {
	return a &^ VirtAddr(uint64(s)-1)
}

// PageOffset returns the offset of a within its page of size s.
func PageOffset(a VirtAddr, s PageSize) uint64 {
	return uint64(a) & (uint64(s) - 1)
}

// Aligned reports whether a is aligned to page size s.
func Aligned(a VirtAddr, s PageSize) bool { return PageOffset(a, s) == 0 }

// AlignUp rounds a up to the next multiple of page size s.
func AlignUp(a VirtAddr, s PageSize) VirtAddr {
	return PageBase(a+VirtAddr(uint64(s)-1), s)
}

// Region identifies a huge-page-aligned virtual region: a page number at
// either 2MB or 1GB granularity plus the size. It is the unit the PCC tracks
// and the OS promotes.
type Region struct {
	Base VirtAddr // first byte of the region; always Size-aligned
	Size PageSize // Page2M or Page1G
}

// RegionOf returns the huge-page region of size s containing a.
func RegionOf(a VirtAddr, s PageSize) Region {
	return Region{Base: PageBase(a, s), Size: s}
}

// Contains reports whether address a falls inside region r.
func (r Region) Contains(a VirtAddr) bool {
	return a >= r.Base && a < r.Base+VirtAddr(uint64(r.Size))
}

// End returns the first address past the region.
func (r Region) End() VirtAddr { return r.Base + VirtAddr(uint64(r.Size)) }

func (r Region) String() string {
	return fmt.Sprintf("[%#x +%s)", uint64(r.Base), r.Size)
}

// VirtAddrLimit bounds the simulated virtual address space: every address
// lies below 2^48, the reach of the modelled x86-64 4-level page table.
const VirtAddrLimit VirtAddr = 1 << 48

// Range is an arbitrary half-open virtual address range, used to describe
// memory allocations (the simulated analogue of a VMA).
type Range struct {
	Start VirtAddr
	End   VirtAddr
}

// Len returns the byte length of the range.
func (rg Range) Len() uint64 { return uint64(rg.End - rg.Start) }

// Contains reports whether a falls inside the range.
func (rg Range) Contains(a VirtAddr) bool { return a >= rg.Start && a < rg.End }

// Overlaps reports whether two ranges share any byte.
func (rg Range) Overlaps(o Range) bool { return rg.Start < o.End && o.Start < rg.End }

// Pages returns the number of pages of size s needed to cover the range,
// assuming Start is s-aligned.
func (rg Range) Pages(s PageSize) uint64 {
	return (rg.Len() + uint64(s) - 1) / uint64(s)
}

func (rg Range) String() string {
	return fmt.Sprintf("[%#x, %#x)", uint64(rg.Start), uint64(rg.End))
}

// HumanBytes formats a byte count with a binary-unit suffix, for tables.
func HumanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
