package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageSizeShift(t *testing.T) {
	cases := []struct {
		s     PageSize
		shift uint
	}{
		{Page4K, 12},
		{Page2M, 21},
		{Page1G, 30},
	}
	for _, c := range cases {
		if got := c.s.Shift(); got != c.shift {
			t.Errorf("%v.Shift() = %d, want %d", c.s, got, c.shift)
		}
		if uint64(1)<<c.shift != uint64(c.s) {
			t.Errorf("1<<%d != %v", c.shift, c.s)
		}
	}
}

func TestPageSizeShiftPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid page size")
		}
	}()
	PageSize(123).Shift()
}

func TestPageSizeValid(t *testing.T) {
	for _, s := range []PageSize{Page4K, Page2M, Page1G} {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	for _, s := range []PageSize{0, 1, 4096 * 2, 1 << 22} {
		if s.Valid() {
			t.Errorf("%v should be invalid", s)
		}
	}
}

func TestPageSizeString(t *testing.T) {
	if Page4K.String() != "4KB" || Page2M.String() != "2MB" || Page1G.String() != "1GB" {
		t.Errorf("unexpected page size strings: %v %v %v", Page4K, Page2M, Page1G)
	}
}

func TestBasePagesPer(t *testing.T) {
	if got := Page2M.BasePagesPer(); got != 512 {
		t.Errorf("2MB = %d base pages, want 512", got)
	}
	if got := Page1G.BasePagesPer(); got != 512*512 {
		t.Errorf("1GB = %d base pages, want %d", got, 512*512)
	}
}

func TestPageNumberAndBase(t *testing.T) {
	a := VirtAddr(0x2345678)
	if got := PageNumber(a, Page4K); got != PageNum(0x2345) {
		t.Errorf("PageNumber 4K = %#x, want 0x2345", uint64(got))
	}
	if got := PageBase(a, Page4K); got != 0x2345000 {
		t.Errorf("PageBase 4K = %#x", uint64(got))
	}
	if got := PageBase(a, Page2M); got != 0x2200000 {
		t.Errorf("PageBase 2M = %#x", uint64(got))
	}
}

func TestAlignUp(t *testing.T) {
	if got := AlignUp(1, Page4K); got != VirtAddr(Page4K) {
		t.Errorf("AlignUp(1) = %#x", uint64(got))
	}
	if got := AlignUp(VirtAddr(Page4K), Page4K); got != VirtAddr(Page4K) {
		t.Errorf("AlignUp(aligned) must be identity, got %#x", uint64(got))
	}
	if got := AlignUp(0, Page2M); got != 0 {
		t.Errorf("AlignUp(0) = %#x", uint64(got))
	}
}

func TestPageBaseDecomposition(t *testing.T) {
	// Property: addr = PageBase + PageOffset, and offset < size.
	f := func(raw uint64, pick uint8) bool {
		sizes := []PageSize{Page4K, Page2M, Page1G}
		s := sizes[int(pick)%3]
		a := VirtAddr(raw % (1 << 47))
		base := PageBase(a, s)
		off := PageOffset(a, s)
		return uint64(base)+off == uint64(a) && off < uint64(s) && Aligned(base, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionOf(t *testing.T) {
	r := RegionOf(0x2345678, Page2M)
	if r.Base != 0x2200000 || r.Size != Page2M {
		t.Errorf("RegionOf = %v", r)
	}
	if !r.Contains(0x2345678) {
		t.Error("region must contain source address")
	}
	if r.Contains(r.End()) {
		t.Error("region must not contain its end")
	}
	if !r.Contains(r.Base) {
		t.Error("region must contain its base")
	}
}

func TestRegionContainsProperty(t *testing.T) {
	f := func(raw uint64, delta uint32) bool {
		a := VirtAddr(raw % (1 << 47))
		r := RegionOf(a, Page2M)
		inside := r.Base + VirtAddr(uint64(delta)%uint64(Page2M))
		return r.Contains(inside)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeLenContains(t *testing.T) {
	rg := Range{Start: 0x1000, End: 0x3000}
	if rg.Len() != 0x2000 {
		t.Errorf("Len = %#x", rg.Len())
	}
	if !rg.Contains(0x1000) || rg.Contains(0x3000) || !rg.Contains(0x2fff) {
		t.Error("half-open containment broken")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{Start: 0x1000, End: 0x3000}
	cases := []struct {
		b    Range
		want bool
	}{
		{Range{0x3000, 0x4000}, false}, // adjacent
		{Range{0x0, 0x1000}, false},    // adjacent below
		{Range{0x2fff, 0x3001}, true},
		{Range{0x0, 0x1001}, true},
		{Range{0x1800, 0x2000}, true}, // nested
		{Range{0x0, 0x8000}, true},    // covering
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap must be symmetric for %v", c.b)
		}
	}
}

func TestRangePages(t *testing.T) {
	rg := Range{Start: 0, End: VirtAddr(Page2M) + 1}
	if got := rg.Pages(Page2M); got != 2 {
		t.Errorf("Pages = %d, want 2 (round up)", got)
	}
	if got := rg.Pages(Page4K); got != 513 {
		t.Errorf("Pages 4K = %d, want 513", got)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[uint64]string{
		512:           "512B",
		2048:          "2.0KB",
		3 << 20:       "3.0MB",
		5 << 30:       "5.0GB",
		1<<20 + 1<<19: "1.5MB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestAlignedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := VirtAddr(rng.Uint64() % (1 << 47))
		for _, s := range []PageSize{Page4K, Page2M, Page1G} {
			b := PageBase(a, s)
			if !Aligned(b, s) {
				t.Fatalf("PageBase(%#x, %v) = %#x not aligned", uint64(a), s, uint64(b))
			}
			if b > a {
				t.Fatalf("PageBase must round down")
			}
		}
	}
}
