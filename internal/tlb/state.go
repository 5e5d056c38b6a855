package tlb

import (
	"fmt"

	"pccsim/internal/mem"
)

// State is the serializable mutable state of one TLB: the entries as
// parallel page-number/size/recency arrays (size 0 = invalid way, whose
// page number is the stale one the way last held), the MRU hint, the LRU
// clock, and the counters. Geometry (sets, ways, name) is configuration,
// not state — a restore target must be built from the same Config, and
// SetState validates the array lengths against the receiver's geometry so a
// snapshot can never be poured into a mismatched structure.
type State struct {
	VPNs    []mem.PageNum
	Sizes   []mem.PageSize
	LRUs    []uint64
	MRUVPN  mem.PageNum
	MRUSize mem.PageSize
	Tick    uint64
	Stats   Stats
}

// State returns a deep copy of the TLB's mutable state.
func (t *TLB) State() State {
	s := State{
		VPNs:  make([]mem.PageNum, len(t.tags)),
		Sizes: make([]mem.PageSize, len(t.tags)),
		LRUs:  append([]uint64(nil), t.lrus...),
		Tick:  t.tick,
		Stats: t.stats,
	}
	for i, tag := range t.tags {
		s.VPNs[i], s.Sizes[i] = untag(tag)
	}
	s.MRUVPN, s.MRUSize = untag(t.mruTag)
	return s
}

// SetState overwrites the TLB's mutable state from a snapshot taken on an
// identically configured structure. It deep-copies the slices so the caller
// may keep or mutate the State afterwards. A size other than 0 or one of
// the three page sizes, or a page number too wide for a tag, is refused.
func (t *TLB) SetState(s State) error {
	n := t.sets * t.ways
	if len(s.VPNs) != n || len(s.Sizes) != n || len(s.LRUs) != n {
		return fmt.Errorf("tlb %q: state has %d/%d/%d entries, structure holds %d",
			t.name, len(s.VPNs), len(s.Sizes), len(s.LRUs), n)
	}
	tags := make([]uint64, n)
	for i := range tags {
		tag, err := stateTag(s.VPNs[i], s.Sizes[i])
		if err != nil {
			return fmt.Errorf("tlb %q: entry %d: %w", t.name, i, err)
		}
		tags[i] = tag
	}
	mru, err := stateTag(s.MRUVPN, s.MRUSize)
	if err != nil {
		return fmt.Errorf("tlb %q: MRU hint: %w", t.name, err)
	}
	copy(t.tags, tags)
	copy(t.lrus, s.LRUs)
	t.mruTag = mru
	t.fillTag = 0
	t.tick = s.Tick
	t.stats = s.Stats
	return nil
}

// stateTag is tagOf for serialized input: size 0 (an invalid way) is
// allowed, and bad input is an error rather than a panic.
func stateTag(vpn mem.PageNum, size mem.PageSize) (uint64, error) {
	if vpn > maxVPN {
		return 0, fmt.Errorf("page number %#x exceeds the tag width", uint64(vpn))
	}
	if size == 0 {
		return uint64(vpn) << classBits, nil
	}
	if !size.Valid() {
		return 0, fmt.Errorf("invalid page size %d", uint64(size))
	}
	return tagOf(vpn, size), nil
}

// HierarchyState bundles the five TLB states of one core's hierarchy plus
// the hierarchy-level counters.
type HierarchyState struct {
	L1D4K    State
	L1D2M    State
	L1D1G    State
	L2       State
	Accesses uint64
	Walks    uint64
}

// State returns a deep copy of the hierarchy's mutable state.
func (h *Hierarchy) State() HierarchyState {
	return HierarchyState{
		L1D4K:    h.l1[0].State(),
		L1D2M:    h.l1[1].State(),
		L1D1G:    h.l1[2].State(),
		L2:       h.l2.State(),
		Accesses: h.accesses,
		Walks:    h.walks,
	}
}

// SetState restores the hierarchy from a snapshot taken on an identically
// configured hierarchy.
func (h *Hierarchy) SetState(s HierarchyState) error {
	if err := h.l1[0].SetState(s.L1D4K); err != nil {
		return err
	}
	if err := h.l1[1].SetState(s.L1D2M); err != nil {
		return err
	}
	if err := h.l1[2].SetState(s.L1D1G); err != nil {
		return err
	}
	if err := h.l2.SetState(s.L2); err != nil {
		return err
	}
	h.accesses = s.Accesses
	h.walks = s.Walks
	return nil
}
