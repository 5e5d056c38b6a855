package trace

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
)

func addrs(s Stream) []mem.VirtAddr {
	var out []mem.VirtAddr
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a.Addr)
	}
}

func TestSliceStream(t *testing.T) {
	in := []Access{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	s := Slice(in)
	got := addrs(s)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream must stay exhausted")
	}
}

func TestLimit(t *testing.T) {
	s := Limit(Sequential(0, 1<<20, 8, 1000), 10)
	if n := len(drainNext(s, 1<<20)); n != 10 {
		t.Errorf("count = %d, want 10", n)
	}
	// Limit larger than the stream passes everything through.
	s = Limit(Sequential(0, 1<<20, 8, 5), 100)
	if n := len(drainNext(s, 1<<20)); n != 5 {
		t.Errorf("count = %d, want 5", n)
	}
}

func TestConcat(t *testing.T) {
	s := Concat(
		Slice([]Access{{Addr: 1}, {Addr: 2}}),
		Slice(nil),
		Slice([]Access{{Addr: 3}}),
	)
	got := addrs(s)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
}

func TestSequentialWrapsAround(t *testing.T) {
	s := Sequential(0x1000, 32, 8, 8)
	got := addrs(s)
	want := []mem.VirtAddr{0x1000, 0x1008, 0x1010, 0x1018, 0x1000, 0x1008, 0x1010, 0x1018}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("pos %d = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
}

func TestUniformRandomStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := mem.VirtAddr(0x4000_0000)
	size := uint64(1 << 20)
	for _, a := range addrs(UniformRandom(base, size, 1000, rng)) {
		if a < base || a >= base+mem.VirtAddr(size) {
			t.Fatalf("address %#x out of range", uint64(a))
		}
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := mem.VirtAddr(0x1000_0000)
	size := uint64(8 << 20)
	counts := map[mem.VirtAddr]int{}
	n := 20000
	for _, a := range addrs(Zipf(base, size, 1.3, uint64(n), rng)) {
		if a < base || a >= base+mem.VirtAddr(size) {
			t.Fatalf("address %#x out of range", uint64(a))
		}
		counts[a]++
	}
	// Skew: the most popular element must far exceed the mean.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(n) / float64(len(counts))
	if float64(max) < 5*mean {
		t.Errorf("zipf skew too weak: max=%d mean=%.1f uniq=%d", max, mean, len(counts))
	}
}

func TestZipfClampsExponent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// s <= 1 must not panic (clamped internally).
	if n := len(drainNext(Zipf(0, 1<<20, 0.5, 100, rng), 1<<20)); n != 100 {
		t.Errorf("count = %d", n)
	}
}

func TestHotColdConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := mem.VirtAddr(0)
	size := uint64(64 << 20)
	hot := uint64(1 << 20)
	inHot := 0
	total := 10000
	for _, a := range addrs(HotCold(base, size, hot, 0.9, uint64(total), rng)) {
		if uint64(a) < hot {
			inHot++
		}
	}
	// 90% directed + ~1.5% of uniform falls in hot range.
	if frac := float64(inHot) / float64(total); frac < 0.85 || frac > 0.95 {
		t.Errorf("hot fraction = %.3f, want ~0.9", frac)
	}
}

func TestHotColdClampsHotBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// hotBytes > size must clamp, not panic or escape the range.
	for _, a := range addrs(HotCold(0, 1<<20, 1<<30, 0.5, 100, rng)) {
		if uint64(a) >= 1<<20 {
			t.Fatalf("escaped range: %#x", uint64(a))
		}
	}
}

func TestPointerChaseVisitsAllNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	size := uint64(64 * 16) // 16 cacheline nodes
	seen := map[mem.VirtAddr]bool{}
	for _, a := range addrs(PointerChase(0, size, 16, rng)) {
		if uint64(a)%64 != 0 || uint64(a) >= size {
			t.Fatalf("bad node address %#x", uint64(a))
		}
		seen[a] = true
	}
	// rand.Perm does not guarantee one cycle, but repeated following from
	// node 0 for 16 steps must stay in range and visit >1 node.
	if len(seen) < 2 {
		t.Errorf("chase visited %d nodes", len(seen))
	}
}

func TestMixRespectsWeightsAndEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Sequential(0, 1<<20, 64, 900)
	b := Sequential(1<<30, 1<<20, 64, 100)
	s := Mix(rng, []float64{0.9, 0.1}, a, b)
	fromA, fromB := 0, 0
	for {
		x, ok := s.Next()
		if !ok {
			break
		}
		if uint64(x.Addr) < 1<<30 {
			fromA++
		} else {
			fromB++
		}
	}
	if fromA != 900 || fromB != 100 {
		t.Errorf("drained %d/%d, want 900/100", fromA, fromB)
	}
}

func TestMixValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched weights must panic")
		}
	}()
	Mix(rand.New(rand.NewSource(1)), []float64{1}, Slice(nil), Slice(nil))
}

func TestCollectBounded(t *testing.T) {
	s := Sequential(0, 1<<20, 8, 1000)
	got := drainNext(s, 10)
	if len(got) != 10 {
		t.Errorf("collected %d", len(got))
	}
}

func TestPhased(t *testing.T) {
	s := Phased(
		Sequential(0, 1<<12, 8, 5),
		Sequential(1<<30, 1<<12, 8, 5),
	)
	got := addrs(s)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	if uint64(got[4]) >= 1<<30 || uint64(got[5]) < 1<<30 {
		t.Error("phases must be ordered")
	}
}
