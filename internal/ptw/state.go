package ptw

import "fmt"

// PWCState is the serializable state of one page-walk-cache level. Capacity
// is configuration; SetState checks the slice lengths against it.
type PWCState struct {
	Tick  uint64
	Tags  []uint64
	LRU   []uint64
	Valid []bool
	Hits  uint64
	Miss  uint64
}

func (c *pwcCache) state() PWCState {
	return PWCState{
		Tick:  c.tick,
		Tags:  append([]uint64(nil), c.tags...),
		LRU:   append([]uint64(nil), c.lru...),
		Valid: append([]bool(nil), c.valid...),
		Hits:  c.hits,
		Miss:  c.miss,
	}
}

func (c *pwcCache) setState(s PWCState) error {
	if len(s.Tags) != c.cap || len(s.LRU) != c.cap || len(s.Valid) != c.cap {
		return fmt.Errorf("ptw: pwc state has %d/%d/%d slots, cache holds %d",
			len(s.Tags), len(s.LRU), len(s.Valid), c.cap)
	}
	copy(c.tags, s.Tags)
	copy(c.lru, s.LRU)
	copy(c.valid, s.Valid)
	c.tick = s.Tick
	c.hits = s.Hits
	c.miss = s.Miss
	// The MRU hint is a pure accelerator (every use re-validates the slot),
	// so it is not serialized; reset it to the canonical cold value.
	c.mru = -1
	return nil
}

// WalkerState bundles the three PWC levels and the walker's counters.
type WalkerState struct {
	PGD   PWCState
	PUD   PWCState
	PMD   PWCState
	Stats WalkerStats
}

// State returns a deep copy of the walker's state.
func (w *Walker) State() WalkerState {
	return WalkerState{
		PGD:   w.pgd.state(),
		PUD:   w.pud.state(),
		PMD:   w.pmd.state(),
		Stats: w.stats,
	}
}

// SetState restores the walker from a snapshot taken with the same PWC
// geometry.
func (w *Walker) SetState(s WalkerState) error {
	if err := w.pgd.setState(s.PGD); err != nil {
		return err
	}
	if err := w.pud.setState(s.PUD); err != nil {
		return err
	}
	if err := w.pmd.setState(s.PMD); err != nil {
		return err
	}
	w.stats = s.Stats
	return nil
}
