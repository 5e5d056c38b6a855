package tlb

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
)

// refTLB is an obviously-correct reference model of a set-associative TLB
// with per-set LRU: sets are slices ordered most-recent-first.
type refTLB struct {
	sets int
	ways int
	data [][]refEntry
}

type refEntry struct {
	vpn  mem.PageNum
	size mem.PageSize
}

func newRefTLB(sets, ways int) *refTLB {
	return &refTLB{sets: sets, ways: ways, data: make([][]refEntry, sets)}
}

func (r *refTLB) set(vpn mem.PageNum) int { return int(uint64(vpn) % uint64(r.sets)) }

func (r *refTLB) lookup(vpn mem.PageNum, size mem.PageSize) bool {
	s := r.set(vpn)
	for i, e := range r.data[s] {
		if e.vpn == vpn && e.size == size {
			// Move to front (most recent).
			copy(r.data[s][1:], r.data[s][:i])
			r.data[s][0] = e
			return true
		}
	}
	return false
}

func (r *refTLB) insert(vpn mem.PageNum, size mem.PageSize) {
	s := r.set(vpn)
	for i, e := range r.data[s] {
		if e.vpn == vpn && e.size == size {
			copy(r.data[s][1:], r.data[s][:i])
			r.data[s][0] = e
			return
		}
	}
	r.data[s] = append([]refEntry{{vpn: vpn, size: size}}, r.data[s]...)
	if len(r.data[s]) > r.ways {
		r.data[s] = r.data[s][:r.ways]
	}
}

// invalidateRange drops every entry whose page overlaps rg, keeping the
// survivors' recency order, and returns how many it dropped.
func (r *refTLB) invalidateRange(rg mem.Range) int {
	n := 0
	for s, set := range r.data {
		kept := set[:0]
		for _, e := range set {
			if pageRange(e.vpn, e.size).Overlaps(rg) {
				n++
			} else {
				kept = append(kept, e)
			}
		}
		r.data[s] = kept
	}
	return n
}

// TestTLBMatchesReferenceModel drives the production TLB and the reference
// model with the same random operation sequence and requires identical
// hit/miss behaviour throughout. This pins down the exact LRU semantics
// (lookup refreshes, insert refreshes duplicates, invalidate removes).
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, geom := range []struct{ entries, ways int }{
		{8, 2}, {16, 4}, {32, 32}, {4, 1},
	} {
		rng := rand.New(rand.NewSource(int64(geom.entries)*31 + int64(geom.ways)))
		tl := New(Config{Name: "sut", Entries: geom.entries, Ways: geom.ways})
		ref := newRefTLB(geom.entries/geom.ways, geom.ways)
		sizes := []mem.PageSize{mem.Page4K, mem.Page2M}
		for op := 0; op < 20000; op++ {
			vpn := mem.PageNum(rng.Intn(48))
			size := sizes[rng.Intn(2)]
			switch rng.Intn(4) {
			case 0, 1:
				got := tl.lookupPage(vpn, size)
				want := ref.lookup(vpn, size)
				if got != want {
					t.Fatalf("geom %+v op %d: Lookup(%d,%v) = %v, ref %v",
						geom, op, vpn, size, got, want)
				}
			case 2:
				tl.insertPage(vpn, size)
				ref.insert(vpn, size)
			case 3:
				r := pageRange(vpn, size)
				got := tl.InvalidateRange(r)
				want := ref.invalidateRange(r)
				if got != want {
					t.Fatalf("geom %+v op %d: InvalidateRange(page %d,%v) = %v, ref %v",
						geom, op, vpn, size, got, want)
				}
			}
		}
	}
}

// TestPCCStorageMatchesPaperBudget cross-checks the headline hardware cost
// claim through the TLB package's per-entry arithmetic: the paper budgets
// 16B per TLB entry and observes that the full PCC storage (808B) would buy
// only ~50 extra TLB entries — a 5% L2 capacity bump.
func TestPCCStorageMatchesPaperBudget(t *testing.T) {
	const pccBytes = 768 + 40 // 2MB PCC + 1GB PCC
	const bytesPerTLBEntry = 16
	extraEntries := pccBytes / bytesPerTLBEntry
	if extraEntries != 50 {
		t.Errorf("PCC storage buys %d TLB entries, paper says ~50", extraEntries)
	}
	if frac := float64(extraEntries) / 1024; frac > 0.05 {
		t.Errorf("L2 coverage bump = %.3f, paper says ~5%%", frac)
	}
}
