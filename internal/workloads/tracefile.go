package workloads

import (
	"fmt"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// TracePrefix marks a Spec name as an external trace file: Build resolves
// "trace:<path>" through TraceFile.
const TracePrefix = "trace:"

// traceMergeGap is the largest run of untouched address space TraceFile
// folds into one inferred VMA.
const traceMergeGap = 16 << 20

// fileWorkload replays an external trace file (text or PCCTRC1 binary; see
// trace.OpenFile) with the VMAs TraceFile inferred from its addresses.
type fileWorkload struct {
	path   string
	ranges []mem.Range
	bytes  uint64
}

func (w *fileWorkload) Name() string        { return TracePrefix + w.path }
func (w *fileWorkload) Footprint() uint64   { return w.bytes }
func (w *fileWorkload) Ranges() []mem.Range { return w.ranges }
func (w *fileWorkload) BaseCPA() float64    { return 18 }
func (w *fileWorkload) Stream() trace.Stream {
	fs, err := trace.OpenFile(w.path)
	if err != nil {
		// Stream construction cannot fail in the Workload contract; an
		// unreadable file yields an empty stream (TraceFile's pre-scan
		// already read it once).
		return trace.Slice(nil)
	}
	return fs
}

// TraceFile scans the trace at path once to derive its VMAs: every touched
// 2MB region is covered, and regions separated by at most 16MB of untouched
// space merge into one range. It fails on an unreadable or malformed file,
// on a trace with no accesses, and on an access at or above
// mem.VirtAddrLimit, past the modelled 4-level page table's reach.
func TraceFile(path string) (Workload, error) {
	fs, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	regions := map[mem.VirtAddr]bool{}
	for {
		a, ok := fs.Next()
		if !ok {
			break
		}
		if a.Addr >= mem.VirtAddrLimit {
			return nil, fmt.Errorf("workloads: trace %s: access %#x is at or above the %#x address-space limit", path, uint64(a.Addr), uint64(mem.VirtAddrLimit))
		}
		regions[mem.PageBase(a.Addr, mem.Page2M)] = true
	}
	if err := fs.Err(); err != nil {
		return nil, err
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("workloads: trace %s contains no accesses", path)
	}
	bases := make([]mem.VirtAddr, 0, len(regions))
	for b := range regions {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	w := &fileWorkload{path: path}
	cur := mem.Range{Start: bases[0], End: bases[0] + mem.VirtAddr(mem.Page2M)}
	for _, b := range bases[1:] {
		if b <= cur.End+traceMergeGap {
			cur.End = b + mem.VirtAddr(mem.Page2M)
		} else {
			w.ranges = append(w.ranges, cur)
			cur = mem.Range{Start: b, End: b + mem.VirtAddr(mem.Page2M)}
		}
	}
	w.ranges = append(w.ranges, cur)
	for _, r := range w.ranges {
		w.bytes += r.Len()
	}
	return w, nil
}
