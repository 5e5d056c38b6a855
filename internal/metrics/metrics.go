// Package metrics holds the cycle cost model that converts simulated TLB /
// page-table-walk / promotion events into runtime estimates, plus the small
// statistics and table-formatting helpers the experiment harness shares.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// The cost model prices simulator events in CPU cycles. It is calibrated
// to a Haswell-class Xeon (the paper's E5-2667 v3): translation overheads
// reproduce the paper's speedup bands (geomean ~1.3x for all-2MB over
// all-4KB on TLB-sensitive irregular workloads).
const (
	// BaseCPA is the default base cost per memory access in cycles,
	// covering all non-translation work (core pipeline + cache hierarchy).
	// Lower values model more memory-bound, TLB-sensitive code. Per-workload
	// overrides come from the workload registry.
	BaseCPA float64 = 18
	// L2TLBHit is the added latency when L1 TLB misses but L2 hits.
	L2TLBHit float64 = 7
	// WalkRef is the cost of one page-table memory reference during a
	// walk (page-table lines are often cache resident; this is a blended
	// cost).
	WalkRef float64 = 26
	// WalkBase is the fixed cost of engaging the walker.
	WalkBase float64 = 8
	// PromoteFixed is the OS-side fixed cost per promotion visible to the
	// application (syscall, locking, shootdown IPIs).
	PromoteFixed float64 = 6000
	// PromoteCopyPer4K is the cycles to migrate/copy one 4KB page during
	// promotion (512 of them per 2MB promotion when data must move).
	PromoteCopyPer4K float64 = 250
	// CompactPer4K is the cycles per 4KB frame migrated by compaction to
	// free a physical block (asynchronous/background pricing).
	CompactPer4K float64 = 300
	// DirectCompactStall is the fixed synchronous stall when a fault-time
	// huge allocation must run direct compaction (lock contention,
	// scanning, retries — the latency spikes §2.1 describes).
	DirectCompactStall float64 = 1_500_000
	// FaultBase is the page fault service cost for a 4KB first touch.
	FaultBase float64 = 500
	// FaultHugeZero is the additional fault-time cost to zero a 2MB page
	// (512x the data of a 4KB fault) for synchronous THP allocation.
	FaultHugeZero float64 = 25000
)

// Rate returns num/den, guarding division by zero — the shared helper for
// per-access rates (PTW rate, L1 miss rate).
func Rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Speedup returns base/new, guarding division by zero.
func Speedup(baseCycles, newCycles float64) float64 {
	if newCycles <= 0 {
		return 0
	}
	return baseCycles / newCycles
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// CurvePoint is one point of a utility curve: performance at a given
// promotion budget.
type CurvePoint struct {
	BudgetPct float64 // % of application footprint allowed to be huge-backed
	Speedup   float64 // runtime speedup over the all-4KB baseline
	PTWRate   float64 // page-table walks per access (paper's "PTW %")
	TLBMiss   float64 // L1-miss rate (either L2 hit or walk)
	HugePages int     // 2MB pages in use at end of run
	Cycles    float64 // absolute modeled cycles (for debugging/tests)
}

// Curve is a named utility curve (one line in Fig. 5 / 8 / 9).
type Curve struct {
	Name   string
	Points []CurvePoint
}

// Table renders rows with aligned columns for terminal output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values (strings pass through,
// float64 -> %.3f, int -> %d, others -> %v).
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case uint64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a ratio as a percentage string.
func Pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
