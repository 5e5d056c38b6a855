package tlb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
)

// The differential tests drive the tag-word TLB and the soaTLB oracle
// (soa_oracle_test.go) with the same random operation sequences and require
// identical results, counters, OnEvict calls and serialized State after
// every step. The sequences deliberately split Lookup misses from their
// fills: between a miss and the Insert of the missed page they interpose an
// invalidation, a flush, a restore or another lookup, the mutations that
// must make the TLB forget the fill victim the miss picked.

var diffSizes = []mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G}

type evictRec struct {
	vpn  mem.PageNum
	size mem.PageSize
}

// interposers name the operations a sequence may place between a miss and
// its fill; the tests assert each one occurred.
var interposers = []string{"invalidate-page", "invalidate-range", "flush", "restore", "lookup-hit", "lookup-miss"}

func TestDifferentialTLB(t *testing.T) {
	geoms := []struct {
		name          string
		entries, ways int
	}{
		{"pow2-sets-4way", 64, 4},
		{"pow2-sets-8way", 32, 8},
		{"odd-sets-4way", 12, 4},
		{"odd-sets-2way", 10, 2},
		{"direct-mapped", 8, 1},
		{"direct-mapped-odd", 7, 1},
		{"fully-associative", 16, 16},
		{"single-entry", 1, 1},
	}
	for gi, g := range geoms {
		for _, hook := range []bool{false, true} {
			name := fmt.Sprintf("%s/onevict=%v", g.name, hook)
			t.Run(name, func(t *testing.T) {
				seed := int64(gi*2 + 1)
				if hook {
					seed++
				}
				diffTLB(t, Config{Name: g.name, Entries: g.entries, Ways: g.ways}, hook, seed)
			})
		}
	}
}

func diffTLB(t *testing.T, cfg Config, hook bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sut, ref := New(cfg), newSoaTLB(cfg)
	var gotEv, wantEv []evictRec
	if hook {
		sut.OnEvict = func(v mem.PageNum, s mem.PageSize) { gotEv = append(gotEv, evictRec{v, s}) }
		ref.OnEvict = func(v mem.PageNum, s mem.PageSize) { wantEv = append(wantEv, evictRec{v, s}) }
	}
	checked := 0 // OnEvict calls already compared
	// A page universe three times the capacity keeps sets contended while
	// still producing plenty of hits.
	universe := 3 * cfg.Entries
	page := func() (mem.PageNum, mem.PageSize) {
		return mem.PageNum(rng.Intn(universe)), diffSizes[rng.Intn(len(diffSizes))]
	}
	var saved []State
	var pending *evictRec // the last Lookup miss, not yet filled
	interposed := ""      // what ran between that miss and now
	covered := map[string]int{}

	for step := 0; step < 10000; step++ {
		var op string
		var got, want any
		switch k := rng.Intn(100); {
		case pending != nil && k < 40:
			// Fill the page the last lookup missed, either straight away
			// (the hierarchy's pattern) or after an interposed mutation.
			op = fmt.Sprintf("Insert(%d,%v) after miss", pending.vpn, pending.size)
			sut.insertPage(pending.vpn, pending.size)
			ref.insertPage(pending.vpn, pending.size)
			if interposed != "" {
				covered[interposed]++
			}
			pending, interposed = nil, ""
		case k < 65:
			vpn, size := page()
			op = fmt.Sprintf("Lookup(%d,%v)", vpn, size)
			hit := ref.lookupPage(vpn, size)
			got, want = sut.lookupPage(vpn, size), hit
			pending, interposed = afterLookup(rng, pending, interposed, &evictRec{vpn, size}, hit)
		case k < 80:
			vpn, size := page()
			op = fmt.Sprintf("Insert(%d,%v)", vpn, size)
			sut.insertPage(vpn, size)
			ref.insertPage(vpn, size)
			pending = nil
		case k < 90:
			vpn, size := page()
			r := pageRange(vpn, size)
			op = fmt.Sprintf("InvalidateRange(page %d,%v)", vpn, size)
			got, want = sut.InvalidateRange(r), ref.InvalidateRange(r)
			if pending != nil && interposed == "" {
				interposed = "invalidate-page"
			}
		case k < 95:
			r := randomRange(rng, universe)
			op = fmt.Sprintf("InvalidateRange(%#x-%#x)", uint64(r.Start), uint64(r.End))
			got, want = sut.InvalidateRange(r), ref.InvalidateRange(r)
			if pending != nil && interposed == "" {
				interposed = "invalidate-range"
			}
		case k < 97:
			op = "Flush"
			sut.Flush()
			ref.Flush()
			if pending != nil && interposed == "" {
				interposed = "flush"
			}
		case k < 98:
			op = "save"
			saved = append(saved, ref.State())
		default:
			// Restore a saved state, or a crafted one whose recency stamps
			// tie, which pins the LRU victim among equals.
			var s State
			if len(saved) > 0 && rng.Intn(2) == 0 {
				s = saved[rng.Intn(len(saved))]
			} else {
				s = craftState(rng, cfg.Entries, universe)
			}
			op = fmt.Sprintf("SetState(tick %d)", s.Tick)
			if err := sut.SetState(s); err != nil {
				t.Fatalf("step %d: SetState: %v", step, err)
			}
			if err := ref.SetState(s); err != nil {
				t.Fatal(err)
			}
			if pending != nil && interposed == "" {
				interposed = "restore"
			}
		}
		if got != want {
			t.Fatalf("step %d %s: got %v, oracle %v", step, op, got, want)
		}
		if sut.Stats() != ref.Stats() {
			t.Fatalf("step %d %s: stats %+v, oracle %+v", step, op, sut.Stats(), ref.Stats())
		}
		if !reflect.DeepEqual(gotEv[checked:], wantEv[checked:]) {
			t.Fatalf("step %d %s: OnEvict calls %v, oracle %v", step, op, gotEv[checked:], wantEv[checked:])
		}
		checked = len(gotEv)
		if gs, ws := sut.State(), ref.State(); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("step %d %s: State diverges:\n got    %+v\n oracle %+v", step, op, gs, ws)
		}
	}
	for _, name := range interposers {
		if covered[name] == 0 {
			t.Errorf("no miss was separated from its fill by %s", name)
		}
	}
	if hook && len(gotEv) == 0 {
		t.Error("sequence never evicted: OnEvict went unchecked")
	}
}

// craftState builds a restorable State no operation sequence produces:
// random entries, some invalid, with recency stamps from a tiny range so
// that whole sets tie.
func craftState(rng *rand.Rand, entries, universe int) State {
	sizes := append([]mem.PageSize{0}, diffSizes...)
	s := State{
		VPNs:  make([]mem.PageNum, entries),
		Sizes: make([]mem.PageSize, entries),
		LRUs:  make([]uint64, entries),
		Tick:  uint64(rng.Intn(4)),
	}
	for i := range s.VPNs {
		s.VPNs[i] = mem.PageNum(rng.Intn(universe))
		s.Sizes[i] = sizes[rng.Intn(len(sizes))]
		s.LRUs[i] = uint64(rng.Intn(3))
	}
	w := rng.Intn(entries)
	s.MRUVPN, s.MRUSize = s.VPNs[w], s.Sizes[w]
	return s
}

// afterLookup updates the pending miss and the interposer record after a
// lookup of next: a miss with nothing pending becomes the pending miss, and
// a miss while one is pending replaces it half the time; otherwise the
// lookup counts as the interposed operation between the pending miss and
// its fill.
func afterLookup[T any](rng *rand.Rand, pending *T, interposed string, next *T, hit bool) (*T, string) {
	if !hit && (pending == nil || rng.Intn(2) == 0) {
		return next, ""
	}
	if pending != nil && interposed == "" {
		if hit {
			return pending, "lookup-hit"
		}
		return pending, "lookup-miss"
	}
	return pending, interposed
}

// pageRange returns the address range of page vpn at size: a one-page
// shootdown.
func pageRange(vpn mem.PageNum, size mem.PageSize) mem.Range {
	start := mem.VirtAddr(uint64(vpn) << size.Shift())
	return mem.Range{Start: start, End: start + mem.VirtAddr(size)}
}

// randomRange returns a shootdown range of one to four pages of a random
// size, positioned inside the page universe at that size.
func randomRange(rng *rand.Rand, universe int) mem.Range {
	size := diffSizes[rng.Intn(len(diffSizes))]
	start := mem.VirtAddr(uint64(rng.Intn(universe)) << size.Shift())
	return mem.Range{Start: start, End: start + mem.VirtAddr(uint64(1+rng.Intn(4))*uint64(size))}
}

func TestDifferentialHierarchy(t *testing.T) {
	odd := HierarchyConfig{
		L1D4K: Config{Name: "L1D-4K", Entries: 12, Ways: 4},
		L1D2M: Config{Name: "L1D-2M", Entries: 6, Ways: 2},
		L1D1G: Config{Name: "L1D-1G", Entries: 2, Ways: 2},
		L2:    Config{Name: "L2", Entries: 40, Ways: 8},
	}
	// The Table 2 L2 holds 1024 entries, so its per-step State comparison
	// dominates; it gets fewer steps than the small odd geometry.
	for _, tc := range []struct {
		name  string
		cfg   HierarchyConfig
		hook  bool
		steps int
	}{
		{"table2", DefaultHierarchyConfig(), false, 4000},
		{"table2-onevict", DefaultHierarchyConfig(), true, 4000},
		{"odd-sets", odd, true, 20000},
	} {
		t.Run(tc.name, func(t *testing.T) { diffHierarchy(t, tc.cfg, tc.hook, tc.steps) })
	}
}

func diffHierarchy(t *testing.T, cfg HierarchyConfig, hook bool, steps int) {
	rng := rand.New(rand.NewSource(int64(cfg.L2.Entries)))
	sut, ref := NewHierarchy(cfg), newSoaHierarchy(cfg)
	var gotEv, wantEv []evictRec
	if hook {
		sut.L2().OnEvict = func(v mem.PageNum, s mem.PageSize) { gotEv = append(gotEv, evictRec{v, s}) }
		ref.l2.OnEvict = func(v mem.PageNum, s mem.PageSize) { wantEv = append(wantEv, evictRec{v, s}) }
	}
	checked := 0
	// Addresses cover about three L2s' worth of pages at each size.
	universe := 3 * cfg.L2.Entries
	addr := func() (mem.VirtAddr, mem.PageSize) {
		size := diffSizes[rng.Intn(len(diffSizes))]
		off := mem.VirtAddr(rng.Intn(int(size)))
		return mem.VirtAddr(uint64(rng.Intn(universe))<<size.Shift()) + off, size
	}
	type access struct {
		a    mem.VirtAddr
		size mem.PageSize
	}
	var saved []HierarchyState
	var pending *access // the last Access that missed, not yet filled
	interposed := ""
	covered := map[string]int{}

	for step := 0; step < steps; step++ {
		var op string
		var got, want any
		switch k := rng.Intn(100); {
		case pending != nil && k < 60:
			op = fmt.Sprintf("Fill(%#x,%v) after miss", uint64(pending.a), pending.size)
			sut.Fill(pending.a, pending.size)
			ref.Fill(pending.a, pending.size)
			if interposed != "" {
				covered[interposed]++
			}
			pending, interposed = nil, ""
		case k < 85:
			a, size := addr()
			op = fmt.Sprintf("Access(%#x,%v)", uint64(a), size)
			res := ref.Access(a, size)
			got, want = sut.Access(a, size), res
			pending, interposed = afterLookup(rng, pending, interposed, &access{a, size}, res != Miss)
		case k < 90:
			a, size := addr()
			op = fmt.Sprintf("Fill(%#x,%v)", uint64(a), size)
			sut.Fill(a, size)
			ref.Fill(a, size)
			pending = nil
		case k < 95:
			r := randomRange(rng, universe)
			op = fmt.Sprintf("Shootdown(%#x-%#x)", uint64(r.Start), uint64(r.End))
			got, want = sut.Shootdown(r), ref.Shootdown(r)
			if pending != nil && interposed == "" {
				interposed = "invalidate-range"
			}
		case k < 97:
			op = "Flush"
			sut.Flush()
			ref.Flush()
			if pending != nil && interposed == "" {
				interposed = "flush"
			}
		case k < 98:
			op = "save"
			saved = append(saved, ref.State())
		default:
			if len(saved) == 0 {
				continue
			}
			s := saved[rng.Intn(len(saved))]
			op = fmt.Sprintf("SetState(accesses %d)", s.Accesses)
			if err := sut.SetState(s); err != nil {
				t.Fatalf("step %d: SetState: %v", step, err)
			}
			if err := ref.SetState(s); err != nil {
				t.Fatal(err)
			}
			if pending != nil && interposed == "" {
				interposed = "restore"
			}
		}
		if got != want {
			t.Fatalf("step %d %s: got %v, oracle %v", step, op, got, want)
		}
		if sut.Accesses() != ref.accesses || sut.Walks() != ref.walks {
			t.Fatalf("step %d %s: accesses/walks %d/%d, oracle %d/%d",
				step, op, sut.Accesses(), sut.Walks(), ref.accesses, ref.walks)
		}
		if !reflect.DeepEqual(gotEv[checked:], wantEv[checked:]) {
			t.Fatalf("step %d %s: OnEvict calls %v, oracle %v", step, op, gotEv[checked:], wantEv[checked:])
		}
		checked = len(gotEv)
		if gs, ws := sut.State(), ref.State(); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("step %d %s: State diverges:\n got    %+v\n oracle %+v", step, op, gs, ws)
		}
	}
	for _, name := range interposers[1:] {
		if covered[name] == 0 {
			t.Errorf("no miss was separated from its fill by %s", name)
		}
	}
}

// TestSetStateRefusesUntaggableEntries: a restored entry must fit the tag
// word — an unknown page size or an over-wide page number is an error, and
// the refused state leaves the TLB untouched.
func TestSetStateRefusesUntaggableEntries(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 2})
	tl.insertPage(3, mem.Page2M)
	before := tl.State()
	for name, mutate := range map[string]func(*State){
		"size":     func(s *State) { s.Sizes[1] = 8192 },
		"vpn":      func(s *State) { s.VPNs[0] = 1 << 62 },
		"mru-size": func(s *State) { s.MRUSize = 3 },
	} {
		s := tl.State()
		s.VPNs = append([]mem.PageNum(nil), s.VPNs...)
		s.Sizes = append([]mem.PageSize(nil), s.Sizes...)
		mutate(&s)
		if err := tl.SetState(s); err == nil {
			t.Errorf("%s: SetState accepted an untaggable entry", name)
		}
		if !reflect.DeepEqual(tl.State(), before) {
			t.Errorf("%s: refused SetState modified the TLB", name)
		}
	}
}
