package vmm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/ptw"
)

// mappedCounts counts p's mapped pages by size from its VMA state: 4KB
// pages, and 2MB and 1GB leaves.
func mappedCounts(p *Process) (p4k, p2m, p1g uint64) {
	for _, v := range p.vmas {
		for _, st := range v.state {
			switch st {
			case state4K:
				p4k++
			case state2M:
				p2m++
			case state1G:
				p1g++
			}
		}
	}
	return p4k, p2m / mem.Page2M.BasePagesPer(), p1g / mem.Page1G.BasePagesPer()
}

// drawMappingVMAs draws one address space for the differential test, in a
// shuffled order:
//
//   - a, b, e and c share one 1GB region with the head of d, so all five
//     share its PUD bit;
//   - a starts unaligned and ends inside a 2MB region that b starts in;
//   - e is a few pages inside b's last region, with c either starting where
//     e ends or two regions on;
//   - d starts unaligned just below the next 1GB boundary and covers the
//     whole 1GB region above it, which can take a 1GB leaf.
func drawMappingVMAs(rng *rand.Rand) []mem.Range {
	page := func(n int) mem.VirtAddr { return mem.VirtAddr(n) << 12 }
	g := mem.VirtAddr(3) << 30
	a := mem.Range{Start: g + 2<<21 + page(rng.Intn(512)), End: g + 4<<21 + page(1+rng.Intn(511))}
	b := mem.Range{Start: a.End, End: a.End + 3<<21 + page(rng.Intn(500))}
	e := mem.Range{Start: b.End, End: b.End + page(1+rng.Intn(3))}
	cStart := e.End
	if rng.Intn(2) == 0 {
		cStart = mem.PageBase(e.End, mem.Page2M) + 2<<21 + page(rng.Intn(512))
	}
	c := mem.Range{Start: cStart, End: cStart + 4<<21}
	d := mem.Range{Start: g + 1<<30 - 1<<21 + page(rng.Intn(512)), End: g + 2<<30 + 1<<21}
	vmas := []mem.Range{a, b, e, c, d}
	rng.Shuffle(len(vmas), func(i, j int) { vmas[i], vmas[j] = vmas[j], vmas[i] })
	return vmas
}

// hotPage draws one of a dozen pages near the start, middle and end of one
// of the first three 2MB regions of a random VMA (for d: the region below
// its 1GB boundary and two inside the 1GB region), clamped to the VMA, so
// that operations keep meeting on the same pages and regions.
func hotPage(rng *rand.Rand, p *Process) (*vma, uint64) {
	v := p.vmas[rng.Intn(len(p.vmas))]
	return v, hotIn(rng, v, v.base2M+mem.VirtAddr(rng.Intn(min(len(v.lastUse2M), 3)))<<21)
}

// hotIn draws one of hotPage's pages of v in the 2MB region at base.
func hotIn(rng *rand.Rand, v *vma, base mem.VirtAddr) uint64 {
	offsets := [...]int{0, 1, 2, 3, 254, 255, 256, 257, 508, 509, 510, 511}
	a := max(base+mem.VirtAddr(offsets[rng.Intn(len(offsets))])<<12, v.r.Start)
	a = min(a, v.r.End-mem.VirtAddr(mem.Page4K))
	return uint64(a-v.r.Start) >> 12
}

// sizeOf is the page size state st maps a page at (0 when unmapped).
func sizeOf(st pageState) mem.PageSize {
	switch st {
	case state4K:
		return mem.Page4K
	case state2M:
		return mem.Page2M
	case state1G:
		return mem.Page1G
	}
	return 0
}

// TestMappingMatchesReference drives an address space's mapping transitions
// and the radix page table they replaced (reftable_test.go) with the same
// random operation sequences — 4KB faults, 2MB leaves over unmapped and
// 4KB-mapped pages (THP faults and promotions), demotions, 1GB promotions,
// walks of every size, HawkEye probes, exec and exit teardowns and
// State/restore round trips — over address spaces with VMAs that meet
// inside a 2MB region, several VMAs in one 1GB region and unaligned starts.
// The two must agree on each walk's pre-walk PMD and PUD bits and raw
// depth, on each probe's result, and on the mapped size of every page of
// each 2MB region an operation remaps; after each 1GB promotion, teardown
// and round trip, and every 50 steps, on the mapped size of every page of
// the regions the operations reach, and on the leaf counts.
func TestMappingMatchesReference(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	covered := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranges := drawMappingVMAs(rng)
		p := newProcess(1, "diff", ranges, 0)
		ref := NewTable()
		var hot []mem.VirtAddr // every page of the regions hotPage draws from
		for _, v := range p.vmas {
			for s := range min(len(v.lastUse2M), 3) {
				base := v.base2M + mem.VirtAddr(s)<<21
				for a := max(base, v.r.Start); a < base+mem.VirtAddr(mem.Page2M) && a < v.r.End; a += mem.VirtAddr(mem.Page4K) {
					hot = append(hot, a)
				}
			}
		}
		sameSize := func(step int, op string, a mem.VirtAddr) {
			t.Helper()
			got, gotOK := p.StateOf(a)
			want, wantOK := ref.MappedSize(a)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d step %d (%s): %#x maps %v/%v, reference %v/%v", seed, step, op, uint64(a), got, gotOK, want, wantOK)
			}
		}
		check := func(step int, op string) {
			t.Helper()
			for _, a := range hot {
				sameSize(step, op, a)
			}
			g4, g2, g1 := mappedCounts(p)
			w4, w2, w1 := ref.Counts()
			if g4 != w4 || g2 != w2 || g1 != w1 {
				t.Fatalf("seed %d step %d (%s): %d/%d/%d pages mapped, reference %d/%d/%d", seed, step, op, g4, g2, g1, w4, w2, w1)
			}
		}
		for step := 0; step < 1200; step++ {
			var op string
			var region mem.VirtAddr // a region whose mappings op changed, or 0
			switch k := rng.Intn(200); {
			case k < 60:
				op = "fault 4KB"
				if v, i := hotPage(rng, p); v.state[i] == stateUnmapped {
					v.map4K(i)
					region = v.r.Start + mem.VirtAddr(i<<12)
					ref.Map(region, mem.Page4K)
				}
			case k < 72:
				op = "map 2MB"
				v, i := hotPage(rng, p)
				r, rv, ok := p.regionEligible2M(v.r.Start + mem.VirtAddr(i<<12))
				if ok && rv.stateOf(r.Base) != state2M && rv.stateOf(r.Base) != state1G {
					p.map2M(rv, r, uint64(step))
					ref.Map(r.Base, mem.Page2M)
					region = r.Base
				}
			case k < 82:
				op = "demote 2MB"
				if bases := sortedKeys(p.huge2M); len(bases) > 0 {
					region = bases[rng.Intn(len(bases))]
					p.demote2M(p.vmaOf(region), region)
					ref.Unmap(region, mem.Page2M)
					ref.MapRegion4K(region)
					covered[op]++
				}
			case k < 85:
				op = "promote 1GB"
				v, i := hotPage(rng, p)
				r, rv, ok := p.regionEligible1G(v.r.Start + mem.VirtAddr(i<<12))
				if ok && rv.stateOf(r.Base) != state1G {
					n2M := len(p.huge2M)
					absorbed := p.map1G(rv, r, uint64(step))
					ref.Map(r.Base, mem.Page1G)
					if absorbed != n2M-len(p.huge2M) {
						t.Fatalf("seed %d step %d: 1GB leaf absorbed %d 2MB leaves, inventory lost %d", seed, step, absorbed, n2M-len(p.huge2M))
					}
					covered[op]++
				}
			case k < 164:
				op = "walk"
				v, i := hotPage(rng, p)
				size := sizeOf(v.state[i])
				if size == 0 {
					break
				}
				a := v.r.Start + mem.VirtAddr(i<<12) + mem.VirtAddr(rng.Intn(4096))
				pmd, pud := v.walk(a, i, size)
				info := ref.Walk(a)
				if levels := ptw.NewWalker().Walk(a, size); !info.Mapped || info.Size != size || info.Levels != levels {
					t.Fatalf("seed %d step %d: walk of %#x reads %d levels to a %v leaf, reference %+v", seed, step, uint64(a), levels, size, info)
				}
				if pmd != info.PMDWasAccessed || pud != info.PUDWasAccessed {
					t.Fatalf("seed %d step %d: walk of %#x (%v) saw PMD/PUD bits %v/%v, reference %v/%v",
						seed, step, uint64(a), size, pmd, pud, info.PMDWasAccessed, info.PUDWasAccessed)
				}
				covered[fmt.Sprintf("walk %v", size)]++
			case k < 190:
				// HawkEye resolves a region once and probes several of the
				// pages the sampled VMA holds in it.
				op = "probe"
				v, i := hotPage(rng, p)
				a := v.r.Start + mem.VirtAddr(i<<12)
				bits, block := p.PTEBits(a), ref.LeafBlock(a)
				for range 4 {
					q := v.r.Start + mem.VirtAddr(hotIn(rng, v, mem.PageBase(a, mem.Page2M))<<12)
					got, want := bits.TestAndClear(q), ref.TestAndClearAccessedIn(block, q)
					if got != want {
						t.Fatalf("seed %d step %d: probe of %#x read %v, reference %v", seed, step, uint64(q), got, want)
					}
					if got {
						covered["probe reading set"]++
					}
				}
			case k < 193:
				op = "exec"
				teardownRef(ref, p)
				n2M, n1G := len(p.huge2M), len(p.huge1G)
				if g2, g1 := p.teardown(); g2 != n2M || g1 != n1G {
					t.Fatalf("seed %d step %d: teardown unmapped %d/%d leaves, inventory held %d/%d", seed, step, g2, g1, n2M, n1G)
				}
				covered[op]++
				if n1G > 0 {
					covered["exec over a 1GB leaf"]++
				}
			case k < 194:
				op = "exit"
				teardownRef(ref, p)
				p.teardown()
				p, ref = newProcess(p.ID+1, "diff", ranges, 0), NewTable()
				covered[op]++
			default:
				op = "restore"
				q := newProcess(p.ID, p.Name, ranges, 0)
				if err := restoreProcess(m, q, processState(p)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				r := NewTable()
				if err := r.SetState(ref.State()); err != nil {
					t.Fatal(err)
				}
				p, ref = q, r
				covered[op]++
			}
			switch {
			case op == "promote 1GB" || op == "exec" || op == "exit" || op == "restore" || step%50 == 0:
				check(step, op)
			case region != 0:
				base := mem.PageBase(region, mem.Page2M)
				for a := base; a < base+mem.VirtAddr(mem.Page2M); a += mem.VirtAddr(mem.Page4K) {
					sameSize(step, op, a)
				}
			}
		}
		check(1200, "end")
	}
	for _, op := range []string{"walk 4KB", "walk 2MB", "walk 1GB", "probe reading set", "demote 2MB", "promote 1GB", "exec", "exec over a 1GB leaf", "exit", "restore"} {
		if covered[op] == 0 {
			t.Errorf("the comparison must cover %q: %v", op, covered)
		}
	}
}

// teardownRef unmaps p's mappings from the reference table the way the
// page-table teardown did: 2MB leaves, then 1GB leaves, then 4KB pages.
func teardownRef(ref *Table, p *Process) {
	for _, base := range sortedKeys(p.huge2M) {
		ref.Unmap(base, mem.Page2M)
	}
	for _, base := range sortedKeys(p.huge1G) {
		ref.Unmap(base, mem.Page1G)
	}
	for _, v := range p.vmas {
		for i, st := range v.state {
			if st == state4K {
				ref.Unmap(v.r.Start+mem.VirtAddr(uint64(i)<<12), mem.Page4K)
			}
		}
	}
}

// TestRegionBitsShareRegions: whatever order the VMAs come in, each 2MB and
// 1GB region some VMA reaches gets one bit, shared by every VMA reaching it.
func TestRegionBitsShareRegions(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newProcess(0, "t", drawMappingVMAs(rng), 0)
		for _, shift := range []uint{21, 30} {
			bits, windows := regionBits(p.vmas, shift)
			regions := map[uint64]*bool{}
			for vi, v := range p.vmas {
				lo := uint64(v.r.Start) >> shift
				for k := range windows[vi] {
					bit := &windows[vi][k]
					if prev, ok := regions[lo+uint64(k)]; ok && prev != bit {
						t.Fatalf("seed %d shift %d: region %#x has two bits", seed, shift, lo+uint64(k))
					}
					regions[lo+uint64(k)] = bit
				}
			}
			if len(regions) != len(bits) {
				t.Fatalf("seed %d shift %d: %d regions reached, %d bits", seed, shift, len(regions), len(bits))
			}
		}
	}
}

// TestPTEBitsZeroForHugeRegions: the probe handle of a region mapped by a
// 2MB or 1GB leaf, or outside every VMA, reads every page clear, whatever
// its pages' PTE bits held before the promotion.
func TestPTEBitsZeroForHugeRegions(t *testing.T) {
	g := mem.VirtAddr(2) << 30
	p := newProcess(0, "t", []mem.Range{{Start: g, End: g + 2<<30}}, 0)
	v := p.vmas[0]
	for _, a := range []mem.VirtAddr{g + 3<<21, g + 5<<21 + 0x3000, g + 1<<30 + 7<<21} {
		i := uint64(a-g) >> 12
		v.map4K(i)
		v.walk(a, i, mem.Page4K)
	}
	p.map2M(v, mem.RegionOf(g+5<<21, mem.Page2M), 1)
	p.map1G(v, mem.RegionOf(g+1<<30, mem.Page1G), 1)
	for _, a := range []mem.VirtAddr{g + 5<<21 + 0x3000, g + 1<<30 + 7<<21, 5 << 30} {
		if b := p.PTEBits(a); b.bits != nil || b.TestAndClear(a) {
			t.Errorf("PTEBits(%#x) hands out bits for a region without PTEs", uint64(a))
		}
	}
	if b := p.PTEBits(g + 3<<21); !b.TestAndClear(g+3<<21) || b.TestAndClear(g+3<<21) {
		t.Error("a walked 4KB page must read set once, then clear")
	}
}

// sortedKeys returns the inventory's region bases in ascending order.
func sortedKeys(h map[mem.VirtAddr]uint64) []mem.VirtAddr {
	out := make([]mem.VirtAddr, 0, len(h))
	for base := range h {
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
