// Package tlb implements a configurable set-associative TLB simulator with
// per-set LRU replacement, plus the two-level hierarchy (split L1 per page
// size, unified L2) described in Table 2 of the paper.
//
// The TLBs cache virtual-page-number -> page-size mappings. The simulator
// never needs the physical frame for correctness of the experiments (all
// decisions key off hit/miss behaviour), but entries carry the page size so
// that a promotion changes which structure caches the translation, and so
// shootdowns can invalidate precisely.
package tlb

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// Stats accumulates hit/miss counters for one TLB.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Invalidates uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses / accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.2f%% miss)", s.Hits, s.Misses, 100*s.MissRate())
}

// TLB is a single set-associative translation lookaside buffer for one or
// more page sizes. Sets are indexed by the low bits of the page number.
//
// Each way is one tag word: the page number above a 2-bit size class
// (tagOf). Class 0 marks an invalid way, so validity, size and page number
// compare in a single load, and a 4-way set is 32 bytes of tags.
// Invalidation clears only the class bits and keeps the page number, which
// the serialized State reports for invalid ways. Recency lives in a
// parallel lrus slice (higher = more recently used).
//
// A set probe scans every way without an early exit (probe), which lets the
// compiler turn the tag match, the first-invalid search and the LRU minimum
// into conditional moves. A lookup miss picks its fill victim in that same
// pass and remembers it, so the insert that follows a miss — the L1 refill
// after an L2 hit, the L2 and L1 fills after a walk — writes that way
// without scanning the set again.
type TLB struct {
	name    string
	sets    int
	ways    int
	setMask uint64 // sets-1 when sets is a power of two, else 0

	tags []uint64 // sets*ways, set-major; see tagOf
	lrus []uint64 // higher = more recently used

	// mruTag is the most recently stamped entry (last lookup hit or
	// insert). That entry is by construction the most recently used way of
	// its set, so a repeat lookup can return a hit without the set scan and
	// without re-stamping: refreshing an already-MRU entry never changes
	// within-set LRU order, which keeps every replacement decision — and
	// therefore every simulation result — bit-identical. Class 0 means no
	// hint; the page number stays as State reports it.
	mruTag uint64

	// fillTag/fillWay remember the last lookup miss and the absolute index
	// of the way an insert of that tag would fill. Any mutation that could
	// move the choice (a stamped hit, an insert, an invalidation, a flush,
	// a restore) clears fillTag, so a matching insert may trust fillWay
	// without rescanning. Class 0 means nothing is remembered.
	fillTag uint64
	fillWay int

	tick  uint64
	stats Stats

	// OnEvict, when set, is called with each valid entry displaced by a
	// capacity replacement (not by invalidation). The victim-tracker
	// candidate source (§5.4.1 design alternative) hangs off this hook.
	OnEvict func(vpn mem.PageNum, size mem.PageSize)
}

// Tag layout: page number << classBits | size class. Page numbers derived
// from 64-bit addresses are below 2^52, well inside the 62 bits available.
const (
	classBits = 2
	classMask = 1<<classBits - 1
	maxVPN    = 1<<(64-classBits) - 1
)

// classSizes maps a size class to its page size; class 0 is an invalid way.
var classSizes = [4]mem.PageSize{0, mem.Page4K, mem.Page2M, mem.Page1G}

// sizeIndex maps a page size to its L1 slot (0 = 4KB, 1 = 2MB, 2 = 1GB);
// the size class of a tag is sizeIndex+1.
func sizeIndex(s mem.PageSize) int {
	switch s {
	case mem.Page4K:
		return 0
	case mem.Page2M:
		return 1
	case mem.Page1G:
		return 2
	}
	panic(fmt.Sprintf("tlb: invalid page size %v", s))
}

// tagOf packs (vpn, size) into a way tag.
func tagOf(vpn mem.PageNum, size mem.PageSize) uint64 {
	return uint64(vpn)<<classBits | uint64(sizeIndex(size)+1)
}

// untag splits a way tag back into (vpn, size); size is 0 for an invalid way.
func untag(tag uint64) (mem.PageNum, mem.PageSize) {
	return mem.PageNum(tag >> classBits), classSizes[tag&classMask]
}

// Config describes one TLB structure.
type Config struct {
	Name    string
	Entries int // total entries; must be divisible by Ways
	Ways    int // associativity; Ways == Entries means fully associative
}

// MaxEntries bounds one TLB structure's capacity (8x Table 2's 1024-entry
// L2), so no configuration Validate accepts can exhaust host memory.
const MaxEntries = 1 << 13

// Validate reports why cfg cannot build a TLB: it needs 1..MaxEntries
// entries and a positive way count that divides them.
func (cfg Config) Validate() error {
	if cfg.Entries <= 0 || cfg.Entries > MaxEntries || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return fmt.Errorf("tlb: invalid geometry %d entries / %d ways (want 1..%d entries in whole sets)",
			cfg.Entries, cfg.Ways, MaxEntries)
	}
	return nil
}

// New builds a TLB from a config. It panics on a config Validate refuses,
// because TLB shapes are static machine configuration, not runtime input.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &TLB{
		name: cfg.Name,
		sets: cfg.Entries / cfg.Ways,
		ways: cfg.Ways,
		tags: make([]uint64, cfg.Entries),
		lrus: make([]uint64, cfg.Entries),
	}
	if t.sets&(t.sets-1) == 0 {
		t.setMask = uint64(t.sets - 1)
	}
	return t
}

// Name returns the configured display name.
func (t *TLB) Name() string { return t.name }

// Entries returns total capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

// Sets returns the set count. External MRU filters (the vmm step-level L0
// translation table) size one slot per set and must index it exactly like
// setBase does, so the geometry is part of the structure's contract.
func (t *TLB) Sets() int { return t.sets }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// setBase returns the index of the first way of tag's set.
func (t *TLB) setBase(tag uint64) int {
	vpn := tag >> classBits
	// Every realistic geometry has a power-of-two set count, so the hot
	// path is a mask; the modulo covers odd test geometries.
	if t.setMask != 0 || t.sets == 1 {
		return int(vpn&t.setMask) * t.ways
	}
	return int(vpn%uint64(t.sets)) * t.ways
}

// probe scans the set starting at base for tag. It returns the matching way
// (-1 if none) and the way a fill would take: the first invalid way, else
// the least recently used one (the lowest index among equal stamps). The
// scan has no early exit and walks downwards, so every comparison is an
// unconditional overwrite the compiler can lower to a conditional move.
func (t *TLB) probe(base int, tag uint64) (hit, victim int) {
	tags := t.tags[base : base+t.ways]
	lrus := t.lrus[base : base+t.ways][:len(tags)]
	hit = -1
	invalid := len(tags)
	oldest, lruWay := ^uint64(0), 0
	for i := len(tags) - 1; i >= 0; i-- {
		g := tags[i]
		if g == tag {
			hit = i
		}
		if g&classMask == 0 {
			invalid = i
		}
		if l := lrus[i]; l <= oldest {
			oldest, lruWay = l, i
		}
	}
	victim = lruWay
	if invalid < len(tags) {
		victim = invalid
	}
	return hit, victim
}

// lookup probes the TLB for tag. On a hit the entry's recency is
// refreshed. It does not insert on miss; insert does that, so that the
// hierarchy controls fill policy.
func (t *TLB) lookup(tag uint64) bool {
	if tag == t.mruTag {
		// MRU fast path: the entry was the last one stamped, so it is
		// still the most recently used way of its set and re-stamping it
		// would not change LRU order. Count the hit and skip the scan.
		t.stats.Hits++
		return true
	}
	t.tick++
	base := t.setBase(tag)
	hit, victim := t.probe(base, tag)
	if hit >= 0 {
		t.lrus[base+hit] = t.tick
		t.stats.Hits++
		t.mruTag = tag
		t.fillTag = 0
		return true
	}
	t.stats.Misses++
	t.fillTag, t.fillWay = tag, base+victim
	return false
}

// insert fills tag, evicting the LRU way of the set if needed.
// Re-inserting an existing entry refreshes it in place.
func (t *TLB) insert(tag uint64) {
	t.tick++
	way := t.fillWay
	if tag != t.fillTag {
		base := t.setBase(tag)
		hit, victim := t.probe(base, tag)
		if hit >= 0 {
			t.lrus[base+hit] = t.tick
			t.mruTag = tag
			t.fillTag = 0
			return
		}
		way = base + victim
	}
	t.fillTag = 0
	if old := t.tags[way]; old&classMask != 0 {
		// Every way was valid: a genuine capacity eviction.
		t.stats.Evictions++
		if t.OnEvict != nil {
			t.OnEvict(untag(old))
		}
	}
	t.tags[way] = tag
	t.lrus[way] = t.tick
	t.mruTag = tag
}

// CountHit records a hit for (vpn, size) established by an external MRU
// filter, without scanning or re-stamping. The caller guarantees the entry
// is present and most recently used in its set (e.g. the vmm step-level L0
// filter, which mirrors the fill/shootdown lifecycle of the entry), so the
// skipped re-stamp cannot change LRU order.
func (t *TLB) CountHit(n uint64) { t.stats.Hits += n }

// Contains reports whether (vpn, size) is cached, without touching LRU
// state or statistics (a diagnostic probe, not a lookup).
func (t *TLB) Contains(vpn mem.PageNum, size mem.PageSize) bool {
	tag := tagOf(vpn, size)
	hit, _ := t.probe(t.setBase(tag), tag)
	return hit >= 0
}

// InvalidateRange removes every entry whose page overlaps the virtual range,
// at any page size the structure holds. It returns the number of entries
// dropped. This is the shootdown used during promotion: all 4KB entries
// within the promoted 2MB region must go.
func (t *TLB) InvalidateRange(r mem.Range) int {
	n := 0
	for i, tag := range t.tags {
		vpn, size := untag(tag)
		if size == 0 {
			continue
		}
		base := mem.VirtAddr(uint64(vpn) << size.Shift())
		pr := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(size))}
		if pr.Overlaps(r) {
			t.tags[i] &^= classMask
			n++
		}
	}
	if n > 0 {
		// Conservatively drop the MRU hint: the stamped entry may be gone.
		t.mruTag &^= classMask
		t.fillTag = 0
	}
	t.stats.Invalidates += uint64(n)
	return n
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] &^= classMask
	}
	t.mruTag &^= classMask
	t.fillTag = 0
}

// VisitValid calls fn for every valid entry without perturbing LRU state or
// statistics. The invariant auditor and property tests use this to check
// that no stale translation survives a shootdown.
func (t *TLB) VisitValid(fn func(vpn mem.PageNum, size mem.PageSize)) {
	for _, tag := range t.tags {
		if tag&classMask != 0 {
			fn(untag(tag))
		}
	}
}

// Publish adds the TLB's counters into s under prefix ("prefix.hits", ...).
func (t *TLB) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".hits", float64(t.stats.Hits))
	s.Add(prefix+".misses", float64(t.stats.Misses))
	s.Add(prefix+".evictions", float64(t.stats.Evictions))
	s.Add(prefix+".invalidates", float64(t.stats.Invalidates))
}
