package pcc

import (
	"testing"

	"pccsim/internal/mem"
)

func TestVictimTrackerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewVictimTracker(0)
}

func TestVictimTrackerRecordAndDump(t *testing.T) {
	v := NewVictimTracker(4)
	for i := 0; i < 5; i++ {
		v.Record(addr2M(1))
	}
	v.Record(addr2M(2))
	dump := v.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump len = %d", len(dump))
	}
	if regionNum(dump[0].Region) != 1 {
		t.Errorf("hottest region = %d, want 1", regionNum(dump[0].Region))
	}
	if dump[0].Freq != 4 { // first Record inserts with freq 0
		t.Errorf("freq = %d", dump[0].Freq)
	}
}

func TestVictimTrackerLRUReplacement(t *testing.T) {
	v := NewVictimTracker(2)
	v.Record(addr2M(1))
	v.Record(addr2M(1)) // freq 1, but will be LRU after 2 is touched
	v.Record(addr2M(2))
	v.Record(addr2M(2))
	v.Record(addr2M(3)) // evicts region 1 (least recent), despite equal freq
	if _, hot := peekVictim(v, 1); hot {
		t.Error("LRU victim must be region 1")
	}
	if _, hot := peekVictim(v, 2); !hot {
		t.Error("region 2 must survive")
	}
	if v.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", v.Stats().Evictions)
	}
}

func peekVictim(v *VictimTracker, region uint64) (uint32, bool) {
	for _, c := range v.Dump() {
		if regionNum(c.Region) == mem.PageNum(region) {
			return c.Freq, true
		}
	}
	return 0, false
}

func TestVictimTrackerInvalidate(t *testing.T) {
	v := NewVictimTracker(4)
	v.Record(addr2M(1))
	v.Record(addr2M(2))
	inside := mem.Range{Start: addr2M(1) + 0x1234, End: addr2M(1) + 0x1235}
	if v.InvalidateRange(inside) != 1 {
		t.Fatal("invalidating any address in a region must drop it")
	}
	if v.InvalidateRange(inside) != 0 {
		t.Fatal("second invalidate must miss")
	}
	n := v.InvalidateRange(mem.Range{Start: addr2M(0), End: addr2M(8)})
	if n != 1 || v.Len() != 0 {
		t.Errorf("range invalidate = %d, len = %d", n, v.Len())
	}
}

func TestVictimTrackerPollution(t *testing.T) {
	// The §5.4.1 argument in miniature: a small tracker fed a streaming
	// eviction pattern (each region evicted once, in order) plus one hot
	// region. The stream constantly displaces entries, so the hot
	// region's count must dominate the dump top — but most capacity is
	// wasted holding one-shot streamed regions.
	v := NewVictimTracker(8)
	for i := 0; i < 1000; i++ {
		v.Record(addr2M(uint64(100 + i))) // stream, never repeats
		if i%4 == 0 {
			v.Record(addr2M(7)) // hot
		}
	}
	dump := v.Dump()
	if regionNum(dump[0].Region) != 7 {
		t.Fatalf("hot region must rank first, got %d", regionNum(dump[0].Region))
	}
	oneShot := 0
	for _, c := range dump[1:] {
		if c.Freq == 0 {
			oneShot++
		}
	}
	if oneShot != len(dump)-1 {
		t.Errorf("expected the rest of the tracker polluted by one-shot regions, got %d of %d",
			oneShot, len(dump)-1)
	}
}

func TestTrackerInterfaceCompliance(t *testing.T) {
	var tr Tracker = NewVictimTracker(4)
	tr.Record(addr2M(3))
	if tr.Len() != 1 {
		t.Error("interface path must work")
	}
	tr = New(DefaultConfig2M())
	tr.Record(addr2M(3))
	if tr.Len() != 1 {
		t.Error("PCC must satisfy Tracker")
	}
}
