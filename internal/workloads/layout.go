package workloads

import (
	"fmt"

	"pccsim/internal/mem"
)

// Layout assigns virtual address ranges to a workload's data structures,
// modelling a deterministic heap (the paper disables ASLR via
// randomize_va_space=0 so simulated and real addresses match; we rely on the
// same determinism to make runs reproducible). Arrays are 2MB-aligned so
// promotion regions line up with data-structure boundaries the way a
// huge-page-aware allocator would place them.
type Layout struct {
	cursor mem.VirtAddr
	arrays []Array
}

// Array is one named allocation.
type Array struct {
	Name string
	R    mem.Range
	// Stride is the virtual bytes consumed per logical element. Workloads
	// inflate this beyond the host element size to model the full record
	// size of the original C implementation (e.g. 64B vertex structs),
	// keeping simulated footprints realistic without allocating them.
	Stride uint64
}

// Addr returns the virtual address of element i.
func (a Array) Addr(i uint64) mem.VirtAddr {
	return a.R.Start + mem.VirtAddr(i*a.Stride)
}

// NewLayout starts a heap at the canonical base (matching a typical x86-64
// mmap region well clear of the null page).
func NewLayout() *Layout {
	return &Layout{cursor: 0x7f00_0000_0000 >> 1} // 0x3f8000000000
}

// NewLayoutAt starts a heap at an explicit base (tests).
func NewLayoutAt(base mem.VirtAddr) *Layout {
	return &Layout{cursor: mem.AlignUp(base, mem.Page2M)}
}

// Alloc reserves elems*stride bytes (2MB-aligned, padded to a 2MB multiple)
// and records it under name.
func (l *Layout) Alloc(name string, elems, stride uint64) Array {
	if stride == 0 {
		panic(fmt.Sprintf("workloads: zero stride for %q", name))
	}
	size := elems * stride
	if size == 0 {
		size = stride
	}
	start := mem.AlignUp(l.cursor, mem.Page2M)
	end := mem.AlignUp(start+mem.VirtAddr(size), mem.Page2M)
	l.cursor = end
	a := Array{Name: name, R: mem.Range{Start: start, End: end}, Stride: stride}
	l.arrays = append(l.arrays, a)
	return a
}

// Arrays returns all allocations in order.
func (l *Layout) Arrays() []Array { return l.arrays }

// Footprint returns the total bytes reserved across all arrays.
func (l *Layout) Footprint() uint64 {
	var total uint64
	for _, a := range l.arrays {
		total += a.R.Len()
	}
	return total
}

// Ranges returns the allocated ranges (the simulated VMAs the OS policies
// scan).
func (l *Layout) Ranges() []mem.Range {
	rs := make([]mem.Range, len(l.arrays))
	for i, a := range l.arrays {
		rs[i] = a.R
	}
	return rs
}

// InitStride is the byte step used by EmitInit's address-order
// initialization pass: 8 touches per 4KB page, enough to fault every page
// while looking like the streaming write pattern of real initialization.
const InitStride = 512

// EmitInit emits the initialization/load phase every real application
// performs before its kernel: a sequential pass over each array in layout
// (address) order. Under Linux's greedy THP policy this is the phase that
// consumes scarce huge page blocks on streamed data; under promotion-based
// policies it merely faults in base pages.
func EmitInit(e *E, arrays []Array) {
	for _, a := range arrays {
		for addr := a.R.Start; addr < a.R.End; addr += InitStride {
			e.TouchW(addr)
		}
	}
}
