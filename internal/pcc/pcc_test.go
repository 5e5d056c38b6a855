package pcc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pccsim/internal/mem"
)

func addr2M(region uint64) mem.VirtAddr {
	return mem.VirtAddr(region << 21)
}

// regionNum returns r's page number at its own granularity (the PCC tag).
func regionNum(r mem.Region) mem.PageNum { return mem.PageNumber(r.Base, r.Size) }

func small(entries int) *PCC {
	return New(Config{Entries: entries, RegionSize: mem.Page2M, CounterBits: 8, Replacement: LFU})
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0, RegionSize: mem.Page2M, CounterBits: 8},
		{Entries: 4, RegionSize: mem.Page4K, CounterBits: 8},
		{Entries: 4, RegionSize: mem.Page2M, CounterBits: 0},
		{Entries: 4, RegionSize: mem.Page2M, CounterBits: 33},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", c)
				}
			}()
			New(c)
		}()
	}
}

func TestDefaultConfigs(t *testing.T) {
	p2 := New(DefaultConfig2M())
	if p2.Config().Entries != 128 || p2.RegionSize() != mem.Page2M {
		t.Errorf("2M default = %+v", p2.Config())
	}
	p1 := New(DefaultConfig1G())
	if p1.Config().Entries != 8 || p1.RegionSize() != mem.Page1G {
		t.Errorf("1G default = %+v", p1.Config())
	}
}

func TestInsertWithFreqZeroAndIncrement(t *testing.T) {
	p := small(4)
	p.Record(addr2M(1))
	if f, ok := p.Peek(addr2M(1)); !ok || f != 0 {
		t.Fatalf("fresh insert freq = %d,%v, want 0", f, ok)
	}
	p.Record(addr2M(1))
	p.Record(addr2M(1) + 0x1234) // same region, any offset
	if f, _ := p.Peek(addr2M(1)); f != 2 {
		t.Fatalf("freq = %d, want 2", f)
	}
	st := p.Stats()
	if st.Inserts != 1 || st.Hits != 2 || st.Lookups != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLFUEviction(t *testing.T) {
	p := small(2)
	p.Record(addr2M(1))
	p.Record(addr2M(1)) // freq 1
	p.Record(addr2M(2)) // freq 0
	p.Record(addr2M(3)) // evicts region 2 (lowest freq)
	if _, ok := p.Peek(addr2M(2)); ok {
		t.Error("region 2 (LFU) should be evicted")
	}
	if _, ok := p.Peek(addr2M(1)); !ok {
		t.Error("region 1 must survive")
	}
	if p.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", p.Stats().Evictions)
	}
}

func TestLFUTieBreakIsLRU(t *testing.T) {
	p := small(2)
	p.Record(addr2M(1)) // freq 0, older
	p.Record(addr2M(2)) // freq 0, newer
	p.Record(addr2M(3)) // tie on freq: evict least recently used = 1
	if _, ok := p.Peek(addr2M(1)); ok {
		t.Error("older tied entry must be evicted")
	}
	if _, ok := p.Peek(addr2M(2)); !ok {
		t.Error("newer tied entry must survive")
	}
}

func TestLRUReplacement(t *testing.T) {
	p := New(Config{Entries: 2, RegionSize: mem.Page2M, CounterBits: 8, Replacement: LRU})
	p.Record(addr2M(1))
	p.Record(addr2M(1)) // high freq but old after next touches
	p.Record(addr2M(2))
	p.Record(addr2M(2))
	p.Record(addr2M(2))
	// Region 1 is LRU despite freq; pure LRU evicts it.
	p.Record(addr2M(3))
	if _, ok := p.Peek(addr2M(1)); ok {
		t.Error("LRU policy must evict least recent regardless of freq")
	}
}

func TestFIFOReplacement(t *testing.T) {
	p := New(Config{Entries: 2, RegionSize: mem.Page2M, CounterBits: 8, Replacement: FIFO})
	p.Record(addr2M(1))
	p.Record(addr2M(2))
	p.Record(addr2M(1)) // refresh recency, but FIFO ignores it
	p.Record(addr2M(3))
	if _, ok := p.Peek(addr2M(1)); ok {
		t.Error("FIFO must evict oldest insert")
	}
}

func TestSaturationDecayPreservesOrder(t *testing.T) {
	p := New(Config{Entries: 4, RegionSize: mem.Page2M, CounterBits: 4, Replacement: LFU})
	// counter saturates at 15.
	for i := 0; i < 10; i++ {
		p.Record(addr2M(1))
	}
	for i := 0; i < 20; i++ {
		p.Record(addr2M(2)) // will saturate and trigger decay
	}
	f1, _ := p.Peek(addr2M(1))
	f2, _ := p.Peek(addr2M(2))
	if f2 <= f1 {
		t.Errorf("relative order lost: f1=%d f2=%d", f1, f2)
	}
	if p.Stats().Decays == 0 {
		t.Error("saturation must trigger decay")
	}
	if f2 >= 16 {
		t.Errorf("counter exceeded width: %d", f2)
	}
}

func TestDisableDecay(t *testing.T) {
	p := New(Config{Entries: 2, RegionSize: mem.Page2M, CounterBits: 4, DisableDecay: true})
	for i := 0; i < 100; i++ {
		p.Record(addr2M(1))
	}
	if f, _ := p.Peek(addr2M(1)); f != 15 {
		t.Errorf("freq = %d, want stuck at 15", f)
	}
	if p.Stats().Decays != 0 {
		t.Error("decay must be disabled")
	}
}

func TestDumpRankedOrder(t *testing.T) {
	p := small(8)
	touch := func(region uint64, times int) {
		for i := 0; i < times; i++ {
			p.Record(addr2M(region))
		}
	}
	touch(5, 3)
	touch(6, 7)
	touch(7, 1)
	dump := p.Dump()
	if len(dump) != 3 {
		t.Fatalf("dump len = %d", len(dump))
	}
	if regionNum(dump[0].Region) != 6 || regionNum(dump[1].Region) != 5 || regionNum(dump[2].Region) != 7 {
		t.Errorf("dump order wrong: %v", dump)
	}
	for i := 1; i < len(dump); i++ {
		if dump[i].Freq > dump[i-1].Freq {
			t.Error("dump must be descending by frequency")
		}
	}
	if p.Stats().Dumps != 1 {
		t.Errorf("dumps = %d", p.Stats().Dumps)
	}
}

func TestDumpRegionReconstruction(t *testing.T) {
	p := small(4)
	a := mem.VirtAddr(0x1234567890) // arbitrary
	p.Record(a)
	dump := p.Dump()
	if len(dump) != 1 {
		t.Fatal("expected one candidate")
	}
	want := mem.RegionOf(a, mem.Page2M)
	if dump[0].Region != want {
		t.Errorf("region = %v, want %v", dump[0].Region, want)
	}
}

func TestInvalidate(t *testing.T) {
	p := small(4)
	p.Record(addr2M(1))
	inside := mem.Range{Start: addr2M(1) + 999, End: addr2M(1) + 1000}
	if p.InvalidateRange(inside) != 1 {
		t.Fatal("invalidating any address in a region must drop it")
	}
	if p.InvalidateRange(inside) != 0 {
		t.Fatal("second invalidate must miss")
	}
	if p.Len() != 0 {
		t.Error("invalidated entry must not count")
	}
}

func TestInvalidateRange(t *testing.T) {
	p := small(8)
	for r := uint64(0); r < 6; r++ {
		p.Record(addr2M(r))
	}
	n := p.InvalidateRange(mem.Range{Start: addr2M(2), End: addr2M(4)})
	if n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if p.Len() != 4 {
		t.Errorf("len = %d, want 4", p.Len())
	}
}

func TestReplacementPolicyString(t *testing.T) {
	for _, pol := range []ReplacementPolicy{LFU, LRU, FIFO, ReplacementPolicy(9)} {
		if pol.String() == "" {
			t.Errorf("policy %d must stringify", int(pol))
		}
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	// Property: Len never exceeds capacity; dump is always sorted
	// descending; counters never exceed the width.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(Config{Entries: 8, RegionSize: mem.Page2M, CounterBits: 6, Replacement: LFU})
		maxc := uint32(63)
		for i := 0; i < 2000; i++ {
			p.Record(addr2M(uint64(rng.Intn(32))))
			if rng.Intn(50) == 0 {
				base := addr2M(uint64(rng.Intn(32)))
				p.InvalidateRange(mem.Range{Start: base, End: base + 1<<21})
			}
		}
		if p.Len() > 8 {
			return false
		}
		dump := p.Dump()
		for i := range dump {
			if dump[i].Freq > maxc {
				return false
			}
			if i > 0 && dump[i].Freq > dump[i-1].Freq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHotRegionsSurviveThrashing(t *testing.T) {
	// A few hot regions plus a stream of cold one-off regions: the hot
	// regions must remain in the PCC and rank on top — the property the
	// whole design rests on.
	p := New(DefaultConfig2M())
	rng := rand.New(rand.NewSource(7))
	hot := []uint64{3, 9, 27}
	for i := 0; i < 50000; i++ {
		if rng.Intn(2) == 0 {
			p.Record(addr2M(hot[rng.Intn(len(hot))]))
		} else {
			p.Record(addr2M(1000 + uint64(i))) // cold, never repeats
		}
	}
	dump := p.Dump()
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
	top := map[uint64]bool{}
	for _, c := range dump[:3] {
		top[uint64(regionNum(c.Region))] = true
	}
	for _, h := range hot {
		if !top[h] {
			t.Errorf("hot region %d missing from top-3: %v", h, dump[:3])
		}
	}
}

func Test1GGranularity(t *testing.T) {
	p := New(DefaultConfig1G())
	p.Record(1<<30 + 12345)
	p.Record(1<<30 + 999999) // same 1GB region
	if f, ok := p.Peek(1 << 30); !ok || f != 1 {
		t.Errorf("1G freq = %d,%v", f, ok)
	}
	dump := p.Dump()
	if dump[0].Region.Size != mem.Page1G || dump[0].Region.Base != 1<<30 {
		t.Errorf("1G dump region = %v", dump[0].Region)
	}
}

func TestStatsString(t *testing.T) {
	p := small(2)
	if p.Stats().String() == "" {
		t.Error("stats must stringify")
	}
}
