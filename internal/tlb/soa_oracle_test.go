package tlb

import (
	"fmt"

	"pccsim/internal/mem"
)

// soaTLB is the differential oracle for TLB: the structure-of-arrays
// implementation the tag-word TLB replaced, kept verbatim in behaviour —
// parallel vpn/size/lru slices, early-exit set scans, and an Insert that
// rescans the set to find a duplicate, the first invalid way or the LRU
// victim. It is deliberately not optimized; it only has to be obviously the
// old code.
type soaTLB struct {
	sets    int
	ways    int
	setMask uint64

	vpns  []mem.PageNum
	sizes []mem.PageSize // 0 = invalid way
	lrus  []uint64

	mruVPN  mem.PageNum
	mruSize mem.PageSize

	tick  uint64
	stats Stats

	OnEvict func(vpn mem.PageNum, size mem.PageSize)
}

func newSoaTLB(cfg Config) *soaTLB {
	t := &soaTLB{
		sets:  cfg.Entries / cfg.Ways,
		ways:  cfg.Ways,
		vpns:  make([]mem.PageNum, cfg.Entries),
		sizes: make([]mem.PageSize, cfg.Entries),
		lrus:  make([]uint64, cfg.Entries),
	}
	if t.sets&(t.sets-1) == 0 {
		t.setMask = uint64(t.sets - 1)
	}
	return t
}

func (t *soaTLB) setIndex(vpn mem.PageNum) int {
	if t.setMask != 0 || t.sets == 1 {
		return int(uint64(vpn) & t.setMask)
	}
	return int(uint64(vpn) % uint64(t.sets))
}

func (t *soaTLB) lookupPage(vpn mem.PageNum, size mem.PageSize) bool {
	if vpn == t.mruVPN && size == t.mruSize {
		t.stats.Hits++
		return true
	}
	t.tick++
	base := t.setIndex(vpn) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == vpn && t.sizes[i] == size {
			t.lrus[i] = t.tick
			t.stats.Hits++
			t.mruVPN, t.mruSize = vpn, size
			return true
		}
	}
	t.stats.Misses++
	return false
}

func (t *soaTLB) insertPage(vpn mem.PageNum, size mem.PageSize) {
	t.tick++
	base := t.setIndex(vpn) * t.ways
	victim := base
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == vpn && t.sizes[i] == size {
			t.lrus[i] = t.tick
			t.mruVPN, t.mruSize = vpn, size
			return
		}
		if t.sizes[i] == 0 {
			for j := i + 1; j < base+t.ways; j++ {
				if t.vpns[j] == vpn && t.sizes[j] == size {
					t.lrus[j] = t.tick
					t.mruVPN, t.mruSize = vpn, size
					return
				}
			}
			t.fill(i, vpn, size)
			return
		}
		if t.lrus[i] < t.lrus[victim] {
			victim = i
		}
	}
	t.stats.Evictions++
	if t.OnEvict != nil {
		t.OnEvict(t.vpns[victim], t.sizes[victim])
	}
	t.fill(victim, vpn, size)
}

func (t *soaTLB) fill(i int, vpn mem.PageNum, size mem.PageSize) {
	t.vpns[i], t.sizes[i], t.lrus[i] = vpn, size, t.tick
	t.mruVPN, t.mruSize = vpn, size
}

func (t *soaTLB) InvalidateRange(r mem.Range) int {
	n := 0
	for i, size := range t.sizes {
		if size == 0 {
			continue
		}
		base := mem.VirtAddr(uint64(t.vpns[i]) << size.Shift())
		pr := mem.Range{Start: base, End: base + mem.VirtAddr(uint64(size))}
		if pr.Overlaps(r) {
			t.sizes[i] = 0
			n++
		}
	}
	if n > 0 {
		t.mruSize = 0
	}
	t.stats.Invalidates += uint64(n)
	return n
}

func (t *soaTLB) Flush() {
	for i := range t.sizes {
		t.sizes[i] = 0
	}
	t.mruSize = 0
}

func (t *soaTLB) Stats() Stats { return t.stats }

func (t *soaTLB) State() State {
	return State{
		VPNs:    append([]mem.PageNum(nil), t.vpns...),
		Sizes:   append([]mem.PageSize(nil), t.sizes...),
		LRUs:    append([]uint64(nil), t.lrus...),
		MRUVPN:  t.mruVPN,
		MRUSize: t.mruSize,
		Tick:    t.tick,
		Stats:   t.stats,
	}
}

func (t *soaTLB) SetState(s State) error {
	n := t.sets * t.ways
	if len(s.VPNs) != n || len(s.Sizes) != n || len(s.LRUs) != n {
		return fmt.Errorf("soa tlb: state has %d/%d/%d entries, structure holds %d",
			len(s.VPNs), len(s.Sizes), len(s.LRUs), n)
	}
	copy(t.vpns, s.VPNs)
	copy(t.sizes, s.Sizes)
	copy(t.lrus, s.LRUs)
	t.mruVPN, t.mruSize = s.MRUVPN, s.MRUSize
	t.tick = s.Tick
	t.stats = s.Stats
	return nil
}

// soaHierarchy is the oracle for Hierarchy: the same Table 2 lookup and
// fill order over soaTLBs.
type soaHierarchy struct {
	l1       [3]*soaTLB
	l2       *soaTLB
	accesses uint64
	walks    uint64
}

func newSoaHierarchy(cfg HierarchyConfig) *soaHierarchy {
	return &soaHierarchy{
		l1: [3]*soaTLB{newSoaTLB(cfg.L1D4K), newSoaTLB(cfg.L1D2M), newSoaTLB(cfg.L1D1G)},
		l2: newSoaTLB(cfg.L2),
	}
}

func (h *soaHierarchy) Access(a mem.VirtAddr, size mem.PageSize) Result {
	h.accesses++
	vpn := mem.PageNumber(a, size)
	l1 := h.l1[sizeIndex(size)]
	if l1.lookupPage(vpn, size) {
		return HitL1
	}
	if size != mem.Page1G && h.l2.lookupPage(vpn, size) {
		l1.insertPage(vpn, size)
		return HitL2
	}
	h.walks++
	return Miss
}

func (h *soaHierarchy) Fill(a mem.VirtAddr, size mem.PageSize) {
	vpn := mem.PageNumber(a, size)
	if size != mem.Page1G {
		h.l2.insertPage(vpn, size)
	}
	h.l1[sizeIndex(size)].insertPage(vpn, size)
}

func (h *soaHierarchy) Shootdown(r mem.Range) int {
	n := 0
	for _, t := range h.l1 {
		n += t.InvalidateRange(r)
	}
	return n + h.l2.InvalidateRange(r)
}

func (h *soaHierarchy) Flush() {
	for _, t := range h.l1 {
		t.Flush()
	}
	h.l2.Flush()
}

func (h *soaHierarchy) State() HierarchyState {
	return HierarchyState{
		L1D4K:    h.l1[0].State(),
		L1D2M:    h.l1[1].State(),
		L1D1G:    h.l1[2].State(),
		L2:       h.l2.State(),
		Accesses: h.accesses,
		Walks:    h.walks,
	}
}

func (h *soaHierarchy) SetState(s HierarchyState) error {
	for i, st := range []State{s.L1D4K, s.L1D2M, s.L1D1G} {
		if err := h.l1[i].SetState(st); err != nil {
			return err
		}
	}
	if err := h.l2.SetState(s.L2); err != nil {
		return err
	}
	h.accesses, h.walks = s.Accesses, s.Walks
	return nil
}
