// Package pcc implements the paper's primary contribution: the Promotion
// Candidate Cache. The PCC is a small, fully-associative hardware structure
// placed after the last-level TLB. Each entry pairs a huge-page-aligned
// virtual address prefix (the tag) with an N-bit saturating frequency
// counter. On every page table walk whose region passes the cold-miss filter
// (the region's page-table accessed bit was already set), the PCC is probed:
// a hit increments the counter; a miss evicts the least-frequently-used
// entry (LRU tie-break) and inserts the new region with frequency 0. When
// any counter saturates, all counters are halved to preserve relative order
// (decay). The OS periodically dumps the contents, ranked by frequency, and
// promotes the top candidates; promotions (TLB shootdowns) invalidate the
// corresponding entries.
package pcc

import (
	"fmt"
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// ReplacementPolicy selects the victim on insertion into a full PCC.
type ReplacementPolicy int

const (
	// LFU evicts the entry with the lowest frequency, breaking ties by
	// least-recent use. This is the paper's default.
	LFU ReplacementPolicy = iota
	// LRU evicts the least recently touched entry regardless of frequency
	// (the simpler alternative §3.2.1 discusses).
	LRU
	// FIFO evicts the oldest-inserted entry (ablation baseline).
	FIFO
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LFU:
		return "LFU"
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	}
	return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
}

// Config describes one PCC instance.
type Config struct {
	// Entries is the capacity (paper default: 128 for the 2MB PCC, 8 for
	// the 1GB PCC).
	Entries int
	// RegionSize is the granularity tracked: Page2M or Page1G.
	RegionSize mem.PageSize
	// CounterBits is the width of the saturating frequency counter
	// (paper: 8 bits, so counters saturate at 255).
	CounterBits int
	// Replacement selects the victim policy; the paper uses LFU with LRU
	// tie-break.
	Replacement ReplacementPolicy
	// DisableDecay turns off the halve-on-saturate behaviour (counters
	// just stick at max). Used only by the ablation experiments.
	DisableDecay bool
}

// DefaultConfig2M returns the paper's 2MB PCC: 128 entries, fully
// associative, 8-bit counters, LFU+LRU replacement.
func DefaultConfig2M() Config {
	return Config{Entries: 128, RegionSize: mem.Page2M, CounterBits: 8, Replacement: LFU}
}

// DefaultConfig1G returns the paper's 1GB PCC: 8 entries, 8-bit counters.
func DefaultConfig1G() Config {
	return Config{Entries: 8, RegionSize: mem.Page1G, CounterBits: 8, Replacement: LFU}
}

// Stats counts PCC activity.
type Stats struct {
	Lookups     uint64 // total probes (post-filter walks)
	Hits        uint64
	Inserts     uint64
	Evictions   uint64
	Decays      uint64 // number of halve-all events
	Invalidates uint64 // entries dropped by shootdowns
	Dumps       uint64 // OS candidate reads
}

func (s Stats) String() string {
	return fmt.Sprintf("lookups=%d hits=%d inserts=%d evictions=%d decays=%d",
		s.Lookups, s.Hits, s.Inserts, s.Evictions, s.Decays)
}

type entry struct {
	valid    bool
	tag      mem.PageNum // region number at RegionSize granularity
	freq     uint32
	lastUse  uint64 // recency stamp for LRU tie-break
	inserted uint64 // insertion stamp for FIFO
}

// Candidate is one ranked promotion candidate as dumped to the OS.
type Candidate struct {
	Region mem.Region
	Freq   uint32
}

// PCC is one promotion candidate cache instance. It is not safe for
// concurrent use; in the simulated machine each core owns its PCCs and the
// OS reads dumps between access batches, mirroring the paper's design where
// the CPU writes PCC contents to a designated memory region.
type PCC struct {
	cfg     Config
	max     uint32 // counter saturation value
	entries []entry
	tick    uint64
	stats   Stats

	// tags shadows entries[i].tag in a dense array so Record's hit scan —
	// once per page table walk — touches 8 bytes per probed way instead of
	// the whole entry struct. A slot's shadow may go stale when its entry is
	// invalidated (the scan re-checks valid on a tag match); valid entries
	// always have an exact shadow. nvalid tracks the live entry count so the
	// miss path only hunts for a free slot when one exists.
	tags   []mem.PageNum
	nvalid int

	// order is the scratch ranking buffer Dump reuses: dumps fire every
	// policy tick in every run, and rebuilding the index slice (plus a
	// sort closure) each time was measurable allocation churn.
	order []int

	// mru is the slot of the most recent hit or insert, or -1. Walks from a
	// sequential sweep record the same region for hundreds of consecutive
	// calls, so Record checks this one slot before the full scan. The fast
	// path re-validates the slot and performs exactly the bookkeeping the
	// scan's hit arm would (tick, lastUse, freq, decay), so contents and
	// statistics are bit-identical with the hint disabled; valid tags are
	// unique, so a hinted match is the slot the scan would find. Never
	// serialized — SetState resets it cold.
	mru int
}

// MaxEntries bounds a PCC's (or victim tracker's) capacity — 64x the
// paper's 128-entry 2MB PCC — so no configuration Validate accepts can
// exhaust host memory.
const MaxEntries = 1 << 13

// Validate reports why cfg cannot build a PCC: it needs 1..MaxEntries
// entries, a 2MB or 1GB region size, a 1..32-bit counter and a known
// replacement policy.
func (cfg Config) Validate() error {
	switch {
	case cfg.Entries <= 0 || cfg.Entries > MaxEntries:
		return fmt.Errorf("pcc: %d entries, want 1..%d", cfg.Entries, MaxEntries)
	case cfg.RegionSize != mem.Page2M && cfg.RegionSize != mem.Page1G:
		return fmt.Errorf("pcc: unsupported region size %v", cfg.RegionSize)
	case cfg.CounterBits <= 0 || cfg.CounterBits > 32:
		return fmt.Errorf("pcc: invalid counter width %d, want 1..32", cfg.CounterBits)
	case cfg.Replacement != LFU && cfg.Replacement != LRU && cfg.Replacement != FIFO:
		return fmt.Errorf("pcc: unknown replacement policy %d", cfg.Replacement)
	}
	return nil
}

// New builds a PCC. It panics on a config Validate refuses (static hardware
// shape).
func New(cfg Config) *PCC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PCC{
		cfg:     cfg,
		max:     uint32(1)<<uint(cfg.CounterBits) - 1,
		entries: make([]entry, cfg.Entries),
		tags:    make([]mem.PageNum, cfg.Entries),
		mru:     -1,
	}
}

// Config returns the configuration the PCC was built with.
func (p *PCC) Config() Config { return p.cfg }

// Stats returns a copy of the counters.
func (p *PCC) Stats() Stats { return p.stats }

// RegionSize returns the tracked granularity.
func (p *PCC) RegionSize() mem.PageSize { return p.cfg.RegionSize }

// Record is the hardware insertion path: called once per page table walk
// that passed the cold-miss filter, with any address inside the region. On a
// hit the frequency increments (decaying all counters if it saturates); on a
// miss the victim is evicted (if full) and the region inserted with
// frequency 0, exactly as in Fig. 3 of the paper.
func (p *PCC) Record(a mem.VirtAddr) {
	p.tick++
	p.stats.Lookups++
	tag := mem.PageNumber(a, p.cfg.RegionSize)
	if m := p.mru; m >= 0 && p.tags[m] == tag && p.entries[m].valid {
		p.bump(&p.entries[m])
		return
	}
	p.record1(tag)
}

// RecordBatch records every address in order, exactly as one Record call
// per element would. The machine's walk path buffers post-filter record
// addresses per core and flushes them here at segment boundaries (and
// before any PCC reader), keeping the translation hot loop free of calls
// into this package while preserving the per-walk record order.
func (p *PCC) RecordBatch(addrs []mem.VirtAddr) {
	shift := p.cfg.RegionSize.Shift()
	for _, a := range addrs {
		p.tick++
		p.stats.Lookups++
		tag := mem.PageNum(uint64(a) >> shift)
		if m := p.mru; m >= 0 && p.tags[m] == tag && p.entries[m].valid {
			p.bump(&p.entries[m])
			continue
		}
		p.record1(tag)
	}
}

// bump applies the hit-path bookkeeping for e: recency stamp, frequency
// increment, and saturation decay, exactly as in Fig. 3.
func (p *PCC) bump(e *entry) {
	p.stats.Hits++
	e.lastUse = p.tick
	if e.freq >= p.max {
		if !p.cfg.DisableDecay {
			p.decay()
			e.freq++ // post-halve increment keeps it top-ranked
		}
		return
	}
	e.freq++
	if e.freq >= p.max && !p.cfg.DisableDecay {
		p.decay()
	}
}

// record1 is the scan-and-insert slow path of Record, after the caller has
// advanced the clock and the lookup counter.
func (p *PCC) record1(tag mem.PageNum) {
	for i, t := range p.tags {
		if t != tag || !p.entries[i].valid {
			continue
		}
		p.mru = i
		p.bump(&p.entries[i])
		return
	}

	// Miss: insert with freq 0, into the first free slot if any (the same
	// slot the historical single-pass scan picked), else into the victim.
	var idx int
	if p.nvalid < len(p.entries) {
		for p.entries[idx].valid {
			idx++
		}
		p.nvalid++
	} else {
		idx = p.victim()
		p.stats.Evictions++
	}
	p.stats.Inserts++
	p.entries[idx] = entry{valid: true, tag: tag, freq: 0, lastUse: p.tick, inserted: p.tick}
	p.tags[idx] = tag
	p.mru = idx
}

// victim selects the replacement victim index among valid entries according
// to the configured policy. Caller guarantees the PCC is full.
func (p *PCC) victim() int {
	v := 0
	switch p.cfg.Replacement {
	case LFU:
		for i := 1; i < len(p.entries); i++ {
			e, b := &p.entries[i], &p.entries[v]
			if e.freq < b.freq || (e.freq == b.freq && e.lastUse < b.lastUse) {
				v = i
			}
		}
	case LRU:
		for i := 1; i < len(p.entries); i++ {
			if p.entries[i].lastUse < p.entries[v].lastUse {
				v = i
			}
		}
	case FIFO:
		for i := 1; i < len(p.entries); i++ {
			if p.entries[i].inserted < p.entries[v].inserted {
				v = i
			}
		}
	}
	return v
}

// decay halves every counter, preserving relative order. This happens in
// hardware when any counter saturates.
func (p *PCC) decay() {
	p.stats.Decays++
	for i := range p.entries {
		if p.entries[i].valid {
			p.entries[i].freq /= 2
		}
	}
}

// Dump returns the current candidates sorted by descending frequency
// (recency as the tie-break, most recent first), without modifying the PCC.
// This models the CPU writing PCC contents to the designated memory region
// for the OS, in priority order.
func (p *PCC) Dump() []Candidate {
	p.stats.Dumps++
	p.order = p.order[:0]
	for i := range p.entries {
		if p.entries[i].valid {
			p.order = append(p.order, i)
		}
	}
	sort.Sort((*byRank)(p))
	out := make([]Candidate, len(p.order))
	shift := p.cfg.RegionSize.Shift()
	for i, idx := range p.order {
		e := &p.entries[idx]
		out[i] = Candidate{
			Region: mem.Region{Base: mem.VirtAddr(uint64(e.tag) << shift), Size: p.cfg.RegionSize},
			Freq:   e.freq,
		}
	}
	return out
}

// byRank sorts a PCC's scratch order slice by descending frequency with
// recency as the tie-break. It is a named conversion of PCC (not a closure)
// so Dump sorts without allocating; the ranking keys are unique — lastUse
// stamps come from distinct ticks — so the sort result is deterministic.
type byRank PCC

func (r *byRank) Len() int      { return len(r.order) }
func (r *byRank) Swap(x, y int) { r.order[x], r.order[y] = r.order[y], r.order[x] }
func (r *byRank) Less(x, y int) bool {
	a, b := &r.entries[r.order[x]], &r.entries[r.order[y]]
	if a.freq != b.freq {
		return a.freq > b.freq
	}
	return a.lastUse > b.lastUse
}

// Regions returns the tracked regions in insertion-slot order, without
// touching the Dumps counter or any other state. The invariant auditor uses
// this so auditing never perturbs the statistics the experiments report.
func (p *PCC) Regions() []mem.Region {
	out := make([]mem.Region, 0, len(p.entries))
	shift := p.cfg.RegionSize.Shift()
	for i := range p.entries {
		if e := &p.entries[i]; e.valid {
			out = append(out, mem.Region{Base: mem.VirtAddr(uint64(e.tag) << shift), Size: p.cfg.RegionSize})
		}
	}
	return out
}

// Publish adds the PCC's counters into s under prefix.
func (p *PCC) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".lookups", float64(p.stats.Lookups))
	s.Add(prefix+".hits", float64(p.stats.Hits))
	s.Add(prefix+".inserts", float64(p.stats.Inserts))
	s.Add(prefix+".evictions", float64(p.stats.Evictions))
	s.Add(prefix+".decays", float64(p.stats.Decays))
	s.Add(prefix+".invalidates", float64(p.stats.Invalidates))
	s.Add(prefix+".dumps", float64(p.stats.Dumps))
}

// Peek returns the frequency for the region containing a, if tracked,
// without moving any counter or recency stamp. Only tests call it.
func (p *PCC) Peek(a mem.VirtAddr) (uint32, bool) {
	tag := mem.PageNumber(a, p.cfg.RegionSize)
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.tag == tag {
			return e.freq, true
		}
	}
	return 0, false
}

// InvalidateRange drops every entry whose region overlaps r, returning the
// count removed. Called on TLB shootdown (e.g. after the OS promotes a
// region), so no stale candidate can survive a promotion.
func (p *PCC) InvalidateRange(r mem.Range) int {
	n := 0
	shift := p.cfg.RegionSize.Shift()
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid {
			continue
		}
		base := mem.VirtAddr(uint64(e.tag) << shift)
		er := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(p.cfg.RegionSize))}
		if er.Overlaps(r) {
			e.valid = false
			n++
		}
	}
	p.nvalid -= n
	p.stats.Invalidates += uint64(n)
	return n
}

// Len returns the number of valid entries.
func (p *PCC) Len() int {
	n := 0
	for i := range p.entries {
		if p.entries[i].valid {
			n++
		}
	}
	return n
}
