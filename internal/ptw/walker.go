// Package ptw models the hardware page table walker that services
// last-level TLB misses on the x86-64 4-level radix page table, and the
// page walk cache (PWC) that shortens walks by caching upper-level entries.
//
// Terminology follows Linux: the levels from root to leaf are PGD (512GB
// per entry), PUD (1GB per entry — where 1GB pages map), PMD (2MB per
// entry — where 2MB pages map) and PTE (4KB). Which pages map at which size,
// and the accessed bits the PCC's cold-miss filter and HawkEye read, are the
// address space's own arrays (internal/vmm); the walker needs only the leaf
// size, since a walk reads 4, 3 or 2 levels for a 4KB, 2MB or 1GB leaf, less
// the upper levels the PWC supplies.
package ptw

import (
	"fmt"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// The page walk cache's geometry: small fully-associative caches of PGD-,
// PUD- and PMD-level entries that let the walker skip upper levels.
// Intel-style MMU caches; §5.4.1 of the paper discusses why the PWC cannot
// replace the PCC (it lacks page-size attribution and frequency counts) —
// but it matters for walk latency, so we model it.
const (
	pwcPGDEntries = 2
	pwcPUDEntries = 4
	pwcPMDEntries = 32
)

// The address bit at which each upper level's entry index starts: a PWC
// tag is the address shifted right by its level's shift.
const (
	pgdShift = 39
	pudShift = 30
	pmdShift = 21
)

// pwcCache is one fully-associative level cache with LRU replacement, keyed
// by the entry index prefix for its level.
type pwcCache struct {
	cap   int
	tick  uint64
	tags  []uint64
	lru   []uint64
	valid []bool
	hits  uint64
	miss  uint64

	// mru is the slot of the most recent hit or fill, or -1. Sequential
	// sweeps probe the same upper-level tags for hundreds of consecutive
	// walks, so probe and insert first check this one slot before paying
	// the fully-associative scan. The fast path performs exactly the
	// bookkeeping the scan's hit path would (tick, recency stamp, hit
	// count), so cache state and statistics are bit-identical with the
	// hint disabled — which is also why the hint itself is never
	// serialized: a stale hint can only miss (the slot's valid bit and
	// tag are re-checked), never change an outcome. Valid tags are unique
	// (inserts scan for duplicates), so when the hinted slot matches it
	// is the same slot the scan would have found.
	mru int
}

func newPWCCache(capacity int) *pwcCache {
	return &pwcCache{
		cap:   capacity,
		tags:  make([]uint64, capacity),
		lru:   make([]uint64, capacity),
		valid: make([]bool, capacity),
		mru:   -1,
	}
}

// probe is the fused lookup: it behaves exactly like the old lookup (tick,
// recency stamp and hit count on a hit, miss count otherwise) but on a miss
// additionally returns the victim slot a subsequent insert of the same tag
// would select — the first invalid way, else the LRU way — so the miss path
// fills without the tag-matching rescan insert performs. The hit scan stays
// as cheap as the old lookup: victim selection runs only after a confirmed
// miss, so hits (the common case, especially for the 32-way PMD cache) pay
// no recency comparisons. The victim is only valid while no other operation
// touches the cache, which holds within one Walk.
func (c *pwcCache) probe(tag uint64) (hit bool, victim int) {
	if m := c.mru; m >= 0 && c.valid[m] && c.tags[m] == tag {
		c.tick++
		c.lru[m] = c.tick
		c.hits++
		return true, -1
	}
	c.tick++
	tags := c.tags
	valid := c.valid[:len(tags)]
	for i := range tags {
		if valid[i] && tags[i] == tag {
			c.lru[i] = c.tick
			c.hits++
			c.mru = i
			return true, -1
		}
	}
	for i := range valid {
		if !valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.miss++
	return false, victim
}

// fillMiss installs tag at the victim slot probe returned for a miss,
// skipping the duplicate/victim rescan insert performs (probe established
// the tag is absent and victim is exactly the slot insert would pick).
func (c *pwcCache) fillMiss(victim int, tag uint64) {
	c.tick++
	c.tags[victim] = tag
	c.lru[victim] = c.tick
	c.valid[victim] = true
	c.mru = victim
}

func (c *pwcCache) insert(tag uint64) {
	if m := c.mru; m >= 0 && c.valid[m] && c.tags[m] == tag {
		c.tick++
		c.lru[m] = c.tick
		return
	}
	c.tick++
	victim := 0
	for i := 0; i < c.cap; i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.tick
			c.mru = i
			return
		}
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.tick
	c.valid[victim] = true
	c.mru = victim
}

func (c *pwcCache) flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// WalkerStats counts walker activity.
type WalkerStats struct {
	Walks        uint64 // total walks performed
	LevelsRead   uint64 // memory references issued (post-PWC)
	PWCHits      uint64
	PWCLookups   uint64
	Walks4K      uint64 // walks that resolved to a 4KB leaf
	Walks2M      uint64
	Walks1G      uint64
	ColdFiltered uint64 // walks whose region access-bit was cold (PCC skip)
}

// RefsPerWalk returns average memory references per walk, the PWC
// effectiveness metric (§5.4.1 cites 1.1–1.4 refs/walk).
func (s WalkerStats) RefsPerWalk() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.LevelsRead) / float64(s.Walks)
}

func (s WalkerStats) String() string {
	return fmt.Sprintf("walks=%d refs/walk=%.2f", s.Walks, s.RefsPerWalk())
}

// Walker is one core's hardware page table walker with its MMU caches. It
// services last-level TLB misses and reports how many levels each walk read
// from memory.
type Walker struct {
	pgd   *pwcCache
	pud   *pwcCache
	pmd   *pwcCache
	stats WalkerStats
}

// NewWalker builds a walker with empty page walk caches.
func NewWalker() *Walker {
	return &Walker{
		pgd: newPWCCache(pwcPGDEntries),
		pud: newPWCCache(pwcPUDEntries),
		pmd: newPWCCache(pwcPMDEntries),
	}
}

// Walk performs a page table walk for address a, whose leaf maps a page of
// the given size, consulting the PWC to skip cached upper levels, and
// returns the number of levels read from memory.
//
// Each level is probed at most once: the probe returns the victim slot on a
// miss, so the refill below fills that slot directly instead of rescanning
// all ways. Levels the probe chain never reached (or whose probe hit) go
// through the historical insert path, which preserves its exact duplicate
// and victim semantics.
func (w *Walker) Walk(a mem.VirtAddr, size mem.PageSize) int {
	w.stats.Walks++

	// PWC: determine the deepest cached level; the walker starts below it.
	// A hit never skips the leaf: a PMD hit counts only above a 4KB leaf, a
	// PUD hit only above a 2MB or 4KB one.
	skipped := 0
	pgdTag := uint64(a) >> pgdShift
	pudTag := uint64(a) >> pudShift
	pmdTag := uint64(a) >> pmdShift

	// Victim slot per level when its probe ran and missed; -1 otherwise.
	pudVictim, pgdVictim := -1, -1

	w.stats.PWCLookups++
	pmdHit, pmdVictim := w.pmd.probe(pmdTag)
	if pmdHit && size == mem.Page4K {
		// PMD-level entry cached: only the PTE read remains.
		skipped = 3
		w.stats.PWCHits++
	} else {
		pudHit, pudSlot := w.pud.probe(pudTag)
		if !pudHit {
			pudVictim = pudSlot
		}
		if pudHit && size != mem.Page1G {
			skipped = 2
			w.stats.PWCHits++
		} else {
			pgdHit, pgdSlot := w.pgd.probe(pgdTag)
			if !pgdHit {
				pgdVictim = pgdSlot
			}
			if pgdHit {
				skipped = 1
				w.stats.PWCHits++
			}
		}
	}

	// Refill PWC with the upper levels this walk traversed, reusing each
	// level's probe victim when the probe missed.
	levels := 4
	refill(w.pgd, pgdVictim, pgdTag)
	switch size {
	case mem.Page4K:
		refill(w.pud, pudVictim, pudTag)
		refill(w.pmd, pmdVictim, pmdTag)
		w.stats.Walks4K++
	case mem.Page2M:
		refill(w.pud, pudVictim, pudTag)
		levels = 3
		w.stats.Walks2M++
	case mem.Page1G:
		levels = 2
		w.stats.Walks1G++
	}
	levels -= skipped
	w.stats.LevelsRead += uint64(levels)
	return levels
}

// refill reinstalls tag after a successful walk: directly into the probe's
// victim slot when this level's probe missed, else through the historical
// insert scan (probe hit, or the short-circuit chain never probed here).
func refill(c *pwcCache, victim int, tag uint64) {
	if victim >= 0 {
		c.fillMiss(victim, tag)
		return
	}
	c.insert(tag)
}

// NoteColdFiltered records that the PCC filter skipped this walk's region
// because its access bit was cold (bookkeeping used by the ablation bench).
func (w *Walker) NoteColdFiltered() { w.stats.ColdFiltered++ }

// InvalidateRange drops PWC entries overlapping the virtual range. Called on
// shootdowns; conservative (flushes all three caches if any overlap could
// exist) would be correct but needlessly slow, so we match per-level tags.
func (w *Walker) InvalidateRange(r mem.Range) {
	invalidate := func(c *pwcCache, shift uint) {
		span := uint64(1) << shift
		for i := 0; i < c.cap; i++ {
			if !c.valid[i] {
				continue
			}
			base := mem.VirtAddr(c.tags[i] << shift)
			pr := mem.Range{Start: base, End: base + mem.VirtAddr(span)}
			if pr.Overlaps(r) {
				c.valid[i] = false
			}
		}
	}
	invalidate(w.pgd, pgdShift)
	invalidate(w.pud, pudShift)
	invalidate(w.pmd, pmdShift)
}

// Flush empties every PWC level.
func (w *Walker) Flush() {
	w.pgd.flush()
	w.pud.flush()
	w.pmd.flush()
}

// Stats returns a copy of the counters.
func (w *Walker) Stats() WalkerStats { return w.stats }

// Publish adds the walker's counters into s under prefix.
func (w *Walker) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".walks", float64(w.stats.Walks))
	// No walk faults: every walk follows the fault that mapped its page.
	// The key stays, at 0, because perfbench's reference digests hash
	// every published counter.
	s.Add(prefix+".faults", 0)
	s.Add(prefix+".levels_read", float64(w.stats.LevelsRead))
	s.Add(prefix+".pwc.hits", float64(w.stats.PWCHits))
	s.Add(prefix+".pwc.lookups", float64(w.stats.PWCLookups))
	s.Add(prefix+".walks.4k", float64(w.stats.Walks4K))
	s.Add(prefix+".walks.2m", float64(w.stats.Walks2M))
	s.Add(prefix+".walks.1g", float64(w.stats.Walks1G))
	s.Add(prefix+".cold_filtered", float64(w.stats.ColdFiltered))
}
