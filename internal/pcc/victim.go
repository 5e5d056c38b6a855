package pcc

import (
	"fmt"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// VictimTracker is the design alternative §5.4.1 discusses: instead of a
// dedicated PCC fed by page table walks, capture promotion candidates from
// L2-TLB *evictions*, aggregated by 2MB region ("a victim cache for the L2
// TLB could capture HUBs as huge page regions evicted due to TLB capacity
// constraints"). The paper argues a small victim cache gets polluted by
// sparsely-accessed data; this implementation exists to quantify that in
// the ablation experiments.
//
// It intentionally shares the PCC's dump/invalidate surface (Tracker) so
// the OS engine works with either candidate source unchanged.
type VictimTracker struct {
	entries []entry
	tick    uint64
	max     uint32
	stats   Stats
}

// Tracker is the candidate-source surface shared by the PCC and the victim
// tracker: the OS only needs recording, ranked dumps, and shootdown
// invalidation. Regions and Publish are stats-neutral observability reads
// for the invariant auditor and the metrics registry.
type Tracker interface {
	Record(a mem.VirtAddr)
	Dump() []Candidate
	InvalidateRange(r mem.Range) int
	Len() int
	Regions() []mem.Region
	Publish(s obs.Snapshot, prefix string)
}

var (
	_ Tracker = (*PCC)(nil)
	_ Tracker = (*VictimTracker)(nil)
)

// NewVictimTracker builds a tracker with the given capacity (compare with a
// PCC of equal entries for a fair area argument).
func NewVictimTracker(entries int) *VictimTracker {
	if entries <= 0 || entries > MaxEntries {
		panic(fmt.Sprintf("pcc: victim tracker entries %d, want 1..%d", entries, MaxEntries))
	}
	return &VictimTracker{entries: make([]entry, entries), max: 255}
}

// Record notes one L2-TLB eviction of a translation inside a 2MB region.
// Unlike the PCC there is no cold-miss filter and no walk-frequency
// semantics: every eviction counts, so streaming data — whose translations
// are evicted constantly — pollutes the tracker.
func (v *VictimTracker) Record(a mem.VirtAddr) {
	v.tick++
	v.stats.Lookups++
	tag := mem.PageNumber(a, mem.Page2M)
	freeIdx := -1
	for i := range v.entries {
		e := &v.entries[i]
		if e.valid && e.tag == tag {
			v.stats.Hits++
			e.lastUse = v.tick
			if e.freq < v.max {
				e.freq++
			}
			return
		}
		if !e.valid && freeIdx < 0 {
			freeIdx = i
		}
	}
	idx := freeIdx
	if idx < 0 {
		// LRU replacement — victim caches have no frequency ranking.
		idx = 0
		for i := 1; i < len(v.entries); i++ {
			if v.entries[i].lastUse < v.entries[idx].lastUse {
				idx = i
			}
		}
		v.stats.Evictions++
	}
	v.stats.Inserts++
	v.entries[idx] = entry{valid: true, tag: tag, freq: 0, lastUse: v.tick, inserted: v.tick}
}

// Dump returns the tracked regions ranked by eviction count.
func (v *VictimTracker) Dump() []Candidate {
	v.stats.Dumps++
	order := make([]int, 0, len(v.entries))
	for i := range v.entries {
		if v.entries[i].valid {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := &v.entries[order[x]], &v.entries[order[y]]
		if a.freq != b.freq {
			return a.freq > b.freq
		}
		return a.lastUse > b.lastUse
	})
	out := make([]Candidate, len(order))
	for i, idx := range order {
		e := &v.entries[idx]
		out[i] = Candidate{
			Region: mem.Region{Base: mem.VirtAddr(uint64(e.tag) << mem.Page2M.Shift()), Size: mem.Page2M},
			Freq:   e.freq,
		}
	}
	return out
}

// InvalidateRange drops entries overlapping r.
func (v *VictimTracker) InvalidateRange(r mem.Range) int {
	n := 0
	for i := range v.entries {
		e := &v.entries[i]
		if !e.valid {
			continue
		}
		base := mem.VirtAddr(uint64(e.tag) << mem.Page2M.Shift())
		er := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(mem.Page2M))}
		if er.Overlaps(r) {
			e.valid = false
			n++
		}
	}
	v.stats.Invalidates += uint64(n)
	return n
}

// Len returns valid entry count.
func (v *VictimTracker) Len() int {
	n := 0
	for i := range v.entries {
		if v.entries[i].valid {
			n++
		}
	}
	return n
}

// Stats returns the counters.
func (v *VictimTracker) Stats() Stats { return v.stats }

// Regions returns the tracked regions in slot order without touching stats.
func (v *VictimTracker) Regions() []mem.Region {
	out := make([]mem.Region, 0, len(v.entries))
	for i := range v.entries {
		if e := &v.entries[i]; e.valid {
			out = append(out, mem.Region{Base: mem.VirtAddr(uint64(e.tag) << mem.Page2M.Shift()), Size: mem.Page2M})
		}
	}
	return out
}

// Publish adds the tracker's counters into s under prefix.
func (v *VictimTracker) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".lookups", float64(v.stats.Lookups))
	s.Add(prefix+".hits", float64(v.stats.Hits))
	s.Add(prefix+".inserts", float64(v.stats.Inserts))
	s.Add(prefix+".evictions", float64(v.stats.Evictions))
	s.Add(prefix+".invalidates", float64(v.stats.Invalidates))
	s.Add(prefix+".dumps", float64(v.stats.Dumps))
}
