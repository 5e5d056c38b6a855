package vmm

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
)

// gigaVMA returns a 1GB-aligned, n-GB VMA.
func gigaVMA(nGB int) []mem.Range {
	start := mem.VirtAddr(1) << 40
	return []mem.Range{{Start: start, End: start + mem.VirtAddr(nGB)<<30}}
}

// gigaConfig builds a machine big enough for 1GB windows.
func gigaConfig() Config {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 4 << 30}
	cfg.PromotionInterval = 1 << 62 // no ticks; tests drive promotions directly
	return cfg
}

// touchRegion faults in every 4KB page of the first nPages pages of r.
func touchRegion(m *Machine, p *Process, start mem.VirtAddr, nPages int) {
	var acc []trace.Access
	for i := 0; i < nPages; i++ {
		acc = append(acc, trace.Access{Addr: start + mem.VirtAddr(i)<<12})
	}
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
}

func TestPromote1GFrom4K(t *testing.T) {
	m := NewMachine(gigaConfig(), nil)
	p := m.AddProcess("t", gigaVMA(1), 10)
	base := p.Ranges()[0].Start
	touchRegion(m, p, base, 1024) // fault in 4MB of it
	if err := m.Promote1G(p, base); err != nil {
		t.Fatal(err)
	}
	if p.HugePages1G() != 1 {
		t.Errorf("1G pages = %d", p.HugePages1G())
	}
	if s, ok := p.StateOf(base + 12345); !ok || s != mem.Page1G {
		t.Errorf("state = %v,%v", s, ok)
	}
	_, _, p1 := mappedCounts(p)
	if p1 != 1 {
		t.Errorf("1G leaves = %d", p1)
	}
	if p.HugeBytes() != uint64(mem.Page1G) {
		t.Errorf("huge bytes = %d", p.HugeBytes())
	}
	if m.Phys().GigaPagesInUse() != 1 {
		t.Error("physical window must be consumed")
	}
}

func TestPromote1GSubsumes2M(t *testing.T) {
	m := NewMachine(gigaConfig(), nil)
	p := m.AddProcess("t", gigaVMA(1), 10)
	base := p.Ranges()[0].Start
	touchRegion(m, p, base, 2048)
	// Promote two 2MB regions first.
	if err := m.Promote2M(p, base); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote2M(p, base+mem.VirtAddr(mem.Page2M)); err != nil {
		t.Fatal(err)
	}
	hugeBefore := m.Phys().HugePagesInUse()
	if hugeBefore != 2 {
		t.Fatalf("setup: %d huge blocks", hugeBefore)
	}
	if err := m.Promote1G(p, base); err != nil {
		t.Fatal(err)
	}
	if p.HugePages2M() != 0 {
		t.Error("2MB mappings must be subsumed")
	}
	if p.HugeBytes() != uint64(mem.Page1G) {
		t.Errorf("huge bytes = %d (2MB accounting must be released)", p.HugeBytes())
	}
	if m.Phys().HugePagesInUse() != 0 {
		t.Error("2MB blocks must be freed back")
	}
}

func TestPromote1GRefusals(t *testing.T) {
	m := NewMachine(gigaConfig(), nil)
	p := m.AddProcess("t", gigaVMA(1), 10)
	base := p.Ranges()[0].Start

	if err := m.Promote1G(p, base); err == nil {
		t.Fatal("untouched region must refuse")
	}
	touchRegion(m, p, base, 64)
	if err := m.Promote1G(p, base); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote1G(p, base); err == nil {
		t.Fatal("double 1G promotion must refuse")
	}
}

func TestPromote1GSpanningVMARefused(t *testing.T) {
	m := NewMachine(gigaConfig(), nil)
	// VMA smaller than 1GB: no 1GB region fits.
	start := mem.VirtAddr(1) << 40
	p := m.AddProcess("t", []mem.Range{{Start: start, End: start + 4<<20}}, 10)
	touchRegion(m, p, start, 16)
	if err := m.Promote1G(p, start); err == nil {
		t.Fatal("1GB region outside the VMA must refuse")
	}
}

func TestPromote1GNoWindow(t *testing.T) {
	cfg := gigaConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 20} // too small for 1GB
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", gigaVMA(1), 10)
	base := p.Ranges()[0].Start
	touchRegion(m, p, base, 16)
	err := m.Promote1G(p, base)
	if !IsNoPhysicalBlock(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestPost1GAccessesUse1GTLB(t *testing.T) {
	m := NewMachine(gigaConfig(), nil)
	p := m.AddProcess("t", gigaVMA(1), 10)
	base := p.Ranges()[0].Start
	touchRegion(m, p, base, 64)
	if err := m.Promote1G(p, base); err != nil {
		t.Fatal(err)
	}
	touchRegion(m, p, base, 64)
	if st := m.Core(0).TLB.L1(mem.Page1G).Stats(); st.Hits == 0 {
		t.Error("post-promotion accesses must hit the 1GB TLB")
	}
}

func TestVictimTrackerWiring(t *testing.T) {
	cfg := gigaConfig()
	cfg.UseVictimTracker = true
	cfg.PCC2M.Entries = 32
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", []mem.Range{{Start: 1 << 30, End: 1<<30 + 64<<21}}, 10)
	core := m.Core(0)
	if core.Victim == nil || core.PCC2M != nil {
		t.Fatal("victim tracker must replace the PCC")
	}
	if core.Candidates2M() != core.Victim {
		t.Fatal("Candidates2M must return the victim tracker")
	}
	// Stream enough distinct pages to overflow the L2 TLB and cause
	// evictions.
	var acc []trace.Access
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 3000; i++ {
			acc = append(acc, trace.Access{Addr: 1<<30 + mem.VirtAddr(i)<<12})
		}
	}
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
	if core.Victim.Len() == 0 {
		t.Error("L2 evictions must populate the victim tracker")
	}
}

func TestCandidates2MNilWhenTrackingOff(t *testing.T) {
	cfg := gigaConfig()
	cfg.EnablePCC = false
	m := NewMachine(cfg, nil)
	if m.Core(0).Candidates2M() != nil {
		t.Error("no tracking hardware: Candidates2M must be nil")
	}
}
