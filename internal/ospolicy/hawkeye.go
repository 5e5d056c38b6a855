package ospolicy

import (
	"sort"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/reprand"
	"pccsim/internal/vmm"
)

// HawkEyeConfig tunes the HawkEye reimplementation (Panwar et al.,
// ASPLOS'19), the software state of the art the paper compares against.
type HawkEyeConfig struct {
	// SamplePages is how many base pages' accessed bits one interval may
	// sample — khugepaged's scan rate, 4096, the per-interval work budget
	// §5.1 identifies as HawkEye's first handicap.
	SamplePages int
	// PromotionsPerTick caps promotions per interval. HawkEye inherits
	// khugepaged's rate: the 4096-page scan covers 8 huge regions, so it
	// "cannot perform as many promotions as the PCC (up to 128)".
	PromotionsPerTick int
	// Buckets is the number of access-coverage buckets (HawkEye: 10, each
	// ~51 pages of coverage wide; regions in bucket 9 promote first).
	Buckets int
	// MinBucket is the lowest bucket ever promoted (default 1, so
	// zero-coverage noise never promotes). Zero takes the default; pass a
	// negative value to genuinely promote from bucket 0.
	MinBucket int
	// EWMA is the weight of the previous coverage estimate when a new
	// interval's sample is folded in (HawkEye re-measures utilization
	// each tracking window and ages old observations).
	EWMA float64
	// Seed drives the deterministic page sampling.
	Seed int64
}

// DefaultHawkEyeConfig returns the configuration the paper evaluates
// against.
func DefaultHawkEyeConfig() HawkEyeConfig {
	return HawkEyeConfig{
		SamplePages:       4096,
		PromotionsPerTick: 8,
		Buckets:           10,
		MinBucket:         1,
		EWMA:              0.5,
		Seed:              99,
	}
}

// hawkRegion is the tracked state for one 2MB-aligned region.
type hawkRegion struct {
	proc *vmm.Process
	base mem.VirtAddr
	// estimate is the EWMA access-coverage estimate in pages (0..512).
	estimate float64
	// hits/samples accumulate within the current interval.
	hits    int
	samples int
}

type regionKey struct {
	pid  int
	base mem.VirtAddr
}

// HawkEye approximates HawkEye's access-coverage-driven asynchronous
// promotion: each interval it samples the accessed bits of a bounded number
// of base pages (clearing them, so a page must be re-walked to count
// again), folds the hit rate into a per-region coverage estimate, buckets
// regions by estimated coverage, and promotes from the highest bucket
// downward at khugepaged's rate.
//
// The two structural weaknesses the paper identifies are inherent here:
// (1) promotions are limited to PromotionsPerTick per interval, far below
// the PCC engine's 128; (2) coverage only records *whether* pages are used,
// not how many TLB misses they cause, so a fully-streamed region ranks as
// high as a genuinely TLB-sensitive one until its cleared bits decay.
type HawkEye struct {
	cfg HawkEyeConfig
	// rng drives the page sampling; reprand so a checkpoint can pin its
	// exact stream position.
	rng     *reprand.Rand
	regions map[regionKey]*hawkRegion
	// extents, slots and chunks are sample's scratch (see flatten), kept
	// across ticks only for their capacity.
	extents []hawkExtent
	slots   []hawkSlot
	chunks  []int

	ticks    uint64
	promoted uint64
}

// NewHawkEye builds the policy.
func NewHawkEye(cfg HawkEyeConfig) *HawkEye {
	def := DefaultHawkEyeConfig()
	if cfg.SamplePages <= 0 {
		cfg.SamplePages = def.SamplePages
	}
	if cfg.PromotionsPerTick <= 0 {
		cfg.PromotionsPerTick = def.PromotionsPerTick
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = def.Buckets
	}
	if cfg.MinBucket == 0 {
		cfg.MinBucket = def.MinBucket
	} else if cfg.MinBucket < 0 {
		cfg.MinBucket = 0
	}
	if cfg.EWMA <= 0 || cfg.EWMA >= 1 {
		cfg.EWMA = def.EWMA
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	return &HawkEye{
		cfg:     cfg,
		rng:     reprand.New(cfg.Seed),
		regions: map[regionKey]*hawkRegion{},
	}
}

// Name implements vmm.Policy.
func (h *HawkEye) Name() string { return "HawkEye" }

// OnAddressSpaceTeardown implements vmm.AddressSpaceReaper: after exec the
// coverage estimates describe an address space that no longer exists, so the
// process's regions start from scratch. Exit tears the address space down
// too, so this also drops a dead process's regions (the entries hold
// *vmm.Process pointers, so leaving them would pin the dead address space
// and re-promote into freed memory).
func (h *HawkEye) OnAddressSpaceTeardown(p *vmm.Process) {
	for k := range h.regions {
		if k.pid == p.ID {
			delete(h.regions, k)
		}
	}
}

// BaseFaultOnly marks the fault path as base-pages-only, letting the
// machine devirtualize it (vmm.BaseFaultOnly).
func (h *HawkEye) BaseFaultOnly() {}

// OnFault implements vmm.Policy: HawkEye allocates base pages at fault time
// and promotes asynchronously.
func (h *HawkEye) OnFault(*vmm.Machine, *vmm.Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}

// Tick implements vmm.Policy: sample access bits, update coverage
// estimates, then promote from the top buckets.
func (h *HawkEye) Tick(m *vmm.Machine) {
	h.ticks++
	h.sample(m)
	h.fold()
	m.Notef("hawkeye.scan", "regions_tracked=%d", len(h.regions))
	h.promote(m)
}

// PublishMetrics implements vmm.MetricsPublisher.
func (h *HawkEye) PublishMetrics(s obs.Snapshot) {
	s.Add("ospolicy.ticks", float64(h.ticks))
	s.Add("ospolicy.promoted.2m", float64(h.promoted))
	s.Add("ospolicy.regions_tracked", float64(len(h.regions)))
}

// hawkExtent is one VMA in a tick's flattened sampling space: the offsets
// below end and at or above the previous extent's end land in it.
type hawkExtent struct {
	p   *vmm.Process
	end uint64
	// delta is the VMA start minus the extent's first offset, so an
	// offset plus delta is its address.
	delta uint64
	// bias is subtracted from the 2MB region number of an address in the
	// VMA to give the region's index in HawkEye.slots.
	bias uint64
}

// hawkSlot is one 2MB region resolved for the rest of a tick: its ledger
// entry and its PTE accessed bits (the zero vmm.PTEBits when it has no
// PTEs). reg is nil until the tick's first sample lands in the region.
type hawkSlot struct {
	reg  *hawkRegion
	ptes vmm.PTEBits
}

// sample draws SamplePages random base pages across all processes' VMAs,
// testing and clearing their accessed bits. A region's ledger entry and PTE
// bits are looked up by the tick's first sample in it and reused by the
// rest: sampling only clears accessed bits, so neither can change within
// the tick.
func (h *HawkEye) sample(m *vmm.Machine) {
	total := h.flatten(m.Procs())
	if total == 0 {
		return
	}
	exts, slots, chunks := h.extents, h.slots, h.chunks
	for i := 0; i < h.cfg.SamplePages; i++ {
		off := h.rng.Uint64() % total
		j := chunks[off>>21]
		for off >= exts[j].end {
			j++
		}
		e := &exts[j]
		addr := mem.PageBase(mem.VirtAddr(off+e.delta), mem.Page4K)
		s := &slots[uint64(addr)>>21-e.bias]
		if s.reg == nil {
			h.resolve(s, e.p, addr)
		}
		s.reg.samples++
		if s.ptes.TestAndClear(addr) {
			s.reg.hits++
		}
	}
	// Nothing resolved outlives the tick (both pin processes).
	clear(exts)
	clear(slots)
}

// flatten lays every process's VMAs end to end into h.extents, so that
// sampling is weighted by size, with one empty slot in h.slots per 2MB
// region each VMA touches and, in h.chunks, the first extent ending past
// each 2MB of offsets (where the search for an offset starts). It returns
// the total size. The scratch slices keep their capacity across ticks.
func (h *HawkEye) flatten(procs []*vmm.Process) uint64 {
	h.extents = h.extents[:0]
	var total, nslots uint64
	for _, p := range procs {
		for _, r := range p.Ranges() {
			first, last := uint64(r.Start)>>21, (uint64(r.End)-1)>>21
			h.extents = append(h.extents, hawkExtent{
				p:     p,
				end:   total + r.Len(),
				delta: uint64(r.Start) - total,
				bias:  first - nslots,
			})
			total += r.Len()
			nslots += last - first + 1
		}
	}
	// Every slot is empty: sample clears the ones it used.
	if uint64(cap(h.slots)) < nslots {
		h.slots = make([]hawkSlot, nslots)
	}
	h.slots = h.slots[:nslots]
	h.chunks = h.chunks[:0]
	j := 0
	for c := uint64(0); c < total; c += 1 << 21 {
		for h.extents[j].end <= c {
			j++
		}
		h.chunks = append(h.chunks, j)
	}
	return total
}

// resolve fills the slot of the 2MB region containing addr: the region's
// ledger entry, created on first sight, and its PTE bits.
func (h *HawkEye) resolve(s *hawkSlot, p *vmm.Process, addr mem.VirtAddr) {
	base := mem.PageBase(addr, mem.Page2M)
	k := regionKey{pid: p.ID, base: base}
	reg := h.regions[k]
	if reg == nil {
		reg = &hawkRegion{proc: p, base: base}
		h.regions[k] = reg
	}
	s.reg, s.ptes = reg, p.PTEBits(addr)
}

// fold converts this interval's samples into coverage estimates (pages per
// region, 0..512) and resets the sample accumulators.
func (h *HawkEye) fold() {
	pagesPerRegion := float64(mem.Page2M.BasePagesPer())
	for _, reg := range h.regions {
		if reg.samples > 0 {
			sampled := float64(reg.hits) / float64(reg.samples) * pagesPerRegion
			reg.estimate = h.cfg.EWMA*reg.estimate + (1-h.cfg.EWMA)*sampled
		} else {
			// Unsampled this interval: age the estimate mildly.
			reg.estimate *= h.cfg.EWMA
		}
		reg.hits, reg.samples = 0, 0
	}
}

// promote drains the highest-coverage buckets, up to PromotionsPerTick.
func (h *HawkEye) promote(m *vmm.Machine) {
	pagesPerRegion := int(mem.Page2M.BasePagesPer())
	bucketWidth := float64(pagesPerRegion) / float64(h.cfg.Buckets)

	var list []*hawkRegion
	for _, r := range h.regions {
		if r.proc.IsHuge2M(r.base) || r.estimate <= 0 {
			continue
		}
		if int(r.estimate/bucketWidth) < h.cfg.MinBucket {
			continue
		}
		list = append(list, r)
	}
	// Bucket-major order (higher bucket first); estimate, process and
	// address as deterministic tie-breaks.
	sort.Slice(list, func(i, j int) bool {
		return hawkPromoteLess(list[i], list[j], bucketWidth)
	})

	promoted := 0
	for _, r := range list {
		if promoted >= h.cfg.PromotionsPerTick {
			break
		}
		err := m.Promote2M(r.proc, r.base)
		if err == nil {
			promoted++
			h.promoted++
			continue
		}
		if vmm.IsNoPhysicalBlock(err) {
			return
		}
	}
}

// hawkPromoteLess is the promotion priority order: higher coverage bucket
// first, then higher raw estimate, then process ID and region base as total
// tie-breaks. The (pid, base) pair uniquely identifies a region, so the
// order is total: without the process tie-break, two processes' regions at
// the same base with equal estimates compared equal and sort.Slice (which is
// unstable over map-iteration-ordered input) picked a random winner —
// run-to-run non-determinism once promotions compete for the last free
// blocks.
func hawkPromoteLess(a, b *hawkRegion, bucketWidth float64) bool {
	ba, bb := int(a.estimate/bucketWidth), int(b.estimate/bucketWidth)
	if ba != bb {
		return ba > bb
	}
	if a.estimate != b.estimate {
		return a.estimate > b.estimate
	}
	if a.proc.ID != b.proc.ID {
		return a.proc.ID < b.proc.ID
	}
	return a.base < b.base
}
