package vmm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// testConfig returns a small machine with a fast tick for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 64 << 21, MovableFillRatio: 0.5} // 64 blocks
	cfg.PromotionInterval = 10_000
	return cfg
}

// vma returns a simple n-region VMA starting at 16MB.
func testVMA(nRegions int) []mem.Range {
	start := mem.VirtAddr(16 << 20)
	return []mem.Range{{Start: start, End: start + mem.VirtAddr(nRegions)<<21}}
}

// tlbHolds reports whether some level of h caches the translation of the
// page of the given size at a.
func tlbHolds(h *tlb.Hierarchy, a mem.VirtAddr, size mem.PageSize) bool {
	want, held := mem.PageNumber(a, size), false
	h.VisitValid(func(_ string, vpn mem.PageNum, s mem.PageSize) {
		held = held || vpn == want && s == size
	})
	return held
}

// seqStream touches every 4KB page of r once, n times over.
func seqStream(r mem.Range, rounds int) trace.Stream {
	var acc []trace.Access
	for i := 0; i < rounds; i++ {
		for a := r.Start; a < r.End; a += mem.VirtAddr(mem.Page4K) {
			acc = append(acc, trace.Access{Addr: a})
		}
	}
	return trace.Slice(acc)
}

func TestAddProcessAndFootprint(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(4), 10)
	if p.Footprint() != 4<<21 {
		t.Errorf("footprint = %d", p.Footprint())
	}
	if len(m.Procs()) != 1 || m.Procs()[0] != p {
		t.Error("process not registered")
	}
}

func TestUnalignedVMAPanics(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned VMA must panic")
		}
	}()
	m.AddProcess("bad", []mem.Range{{Start: 1, End: 4097}}, 10)
}

func TestFaultMapsBasePages(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	r := p.Ranges()[0]
	res := m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	if p.Faults != 512 {
		t.Errorf("faults = %d, want 512", p.Faults)
	}
	p4, p2, _ := mappedCounts(p)
	if p4 != 512 || p2 != 0 {
		t.Errorf("mapped = %d/%d", p4, p2)
	}
	if res.Accesses != 512 {
		t.Errorf("accesses = %d", res.Accesses)
	}
	if s, ok := p.StateOf(r.Start); !ok || s != mem.Page4K {
		t.Errorf("state = %v,%v", s, ok)
	}
}

func TestAccessOutsideVMAPanics(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("wild access must panic")
		}
	}()
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{{Addr: 0x1000}})})
}

func TestPromote2M(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})

	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !p.IsHuge2M(r.Start) {
		t.Error("region must be huge")
	}
	if p.HugeBytes() != uint64(mem.Page2M) || p.HugePages2M() != 1 {
		t.Errorf("huge accounting: %d bytes, %d pages", p.HugeBytes(), p.HugePages2M())
	}
	if s, _ := p.StateOf(r.Start + 0x1000); s != mem.Page2M {
		t.Errorf("page state = %v", s)
	}
	_, p2, _ := mappedCounts(p)
	if p2 != 1 {
		t.Errorf("2M leaves = %d", p2)
	}
	if m.Phys().HugePagesInUse() != 1 {
		t.Error("physical block must be consumed")
	}
	if p.Promotions2M != 1 {
		t.Errorf("promotions = %d", p.Promotions2M)
	}
}

func TestPromoteRefusals(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]

	// Untouched region.
	if err := m.Promote2M(p, r.Start); err == nil {
		t.Fatal("promoting untouched region must fail")
	}
	m.Run(&Job{Proc: p, Stream: seqStream(mem.Range{Start: r.Start, End: r.Start + 2<<21}, 1)})

	// Double promotion.
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote2M(p, r.Start); err == nil {
		t.Fatal("double promotion must fail")
	}

	// Budget.
	p.MaxHugeBytes = uint64(mem.Page2M) // already used
	err := m.Promote2M(p, r.Start+mem.VirtAddr(mem.Page2M))
	if !IsBudgetExhausted(err) {
		t.Fatalf("err = %v", err)
	}
	var pe *PromoteError
	if !errors.As(err, &pe) || pe.Error() == "" || pe.Kind.String() != "budget-exhausted" {
		t.Errorf("error must stringify with its kind: %v", err)
	}
}

func TestPromoteOutsideVMA(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	err := m.Promote2M(p, p.Ranges()[0].End+mem.VirtAddr(4<<21))
	if err == nil {
		t.Fatal("promotion outside VMAs must fail")
	}
}

func TestPromoteExhaustsPhysicalBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.Phys = physmem.Config{TotalBytes: 2 << 21, MovableFillRatio: 0} // 2 blocks
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(4), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote2M(p, r.Start+mem.VirtAddr(mem.Page2M)); err != nil {
		t.Fatal(err)
	}
	err := m.Promote2M(p, r.Start+mem.VirtAddr(2*uint64(mem.Page2M)))
	if !IsNoPhysicalBlock(err) {
		t.Fatalf("err = %v", err)
	}
	if m.PromotionFailures == 0 {
		t.Error("failure must be counted")
	}
}

func TestDemote2M(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(mem.Range{Start: r.Start, End: r.Start + 1<<21}, 1)})
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if p.IsHuge2M(r.Start) || p.HugeBytes() != 0 {
		t.Error("demotion must undo huge accounting")
	}
	p4, p2, _ := mappedCounts(p)
	if p2 != 0 || p4 != 512 {
		t.Errorf("post-demotion mapping = %d/%d", p4, p2)
	}
	if m.Phys().HugePagesInUse() != 0 {
		t.Error("block must be returned")
	}
	if p.Demotions != 1 {
		t.Errorf("demotions = %d", p.Demotions)
	}
	// Demoting a non-huge region fails.
	if err := m.Demote2M(p, r.Start); err == nil {
		t.Fatal("double demotion must fail")
	}
}

func TestPromotionShootsDownTLBAndPCC(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	// Touch pages twice: second pass records into the PCC (bits warm).
	m.Run(&Job{Proc: p, Stream: seqStream(mem.Range{Start: r.Start, End: r.Start + 1<<21}, 2)})
	core := m.Core(0)
	if core.PCC2M.Len() == 0 {
		t.Fatal("PCC must have tracked the region")
	}
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if core.PCC2M.Len() != 0 {
		t.Error("promotion shootdown must invalidate the PCC entry")
	}
	if tlbHolds(core.TLB, r.Start, mem.Page4K) {
		t.Error("4KB entries must be shot down")
	}
}

func TestPostPromotionAccessesUse2M(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	st2 := m.Core(0).TLB.L1(mem.Page2M).Stats()
	if st2.Hits == 0 {
		t.Error("post-promotion accesses must hit the 2MB TLB")
	}
}

func TestRunResultRates(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(4), 10)
	res := m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2)})
	if res.PTWRate <= 0 || res.PTWRate > 1 {
		t.Errorf("PTW rate = %v", res.PTWRate)
	}
	if res.L1MissRate < res.PTWRate {
		t.Error("L1 miss rate must be >= walk rate")
	}
	if res.Cycles <= 0 {
		t.Error("cycles must accumulate")
	}
	if len(res.PerProc) != 1 || res.PerProc[0].Name != "t" {
		t.Errorf("per-proc = %+v", res.PerProc)
	}
	if res.PerProc[0].RuntimeCycles <= 0 {
		t.Error("process runtime must be recorded")
	}
}

func TestBaseCPAScalesCycles(t *testing.T) {
	run := func(cpa float64) float64 {
		m := NewMachine(testConfig(), nil)
		p := m.AddProcess("t", testVMA(1), cpa)
		return m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}).Cycles
	}
	lo, hi := run(5), run(50)
	if hi <= lo {
		t.Errorf("higher CPA must cost more: %v vs %v", lo, hi)
	}
}

func TestMultiCoreRouting(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	var acc []trace.Access
	for a := r.Start; a < r.End; a += mem.VirtAddr(mem.Page4K) {
		acc = append(acc, trace.Access{Addr: a, Thread: int(a>>12) % 2})
	}
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc), Cores: []int{0, 1}})
	c0, c1 := m.Core(0), m.Core(1)
	if c0.Accesses == 0 || c1.Accesses == 0 {
		t.Errorf("accesses not distributed: %d / %d", c0.Accesses, c1.Accesses)
	}
	if c0.Accesses+c1.Accesses != 1024 {
		t.Errorf("total = %d", c0.Accesses+c1.Accesses)
	}
}

func TestJobCoreOutOfRangePanics(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("bad core id must panic")
		}
	}()
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1), Cores: []int{7}})
}

func TestMultiProcessIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	m := NewMachine(cfg, nil)
	// Same virtual addresses, different address spaces.
	pa := m.AddProcess("a", testVMA(1), 10)
	pb := m.AddProcess("b", testVMA(1), 10)
	m.Run(
		&Job{Proc: pa, Stream: seqStream(pa.Ranges()[0], 1), Cores: []int{0}},
		&Job{Proc: pb, Stream: seqStream(pb.Ranges()[0], 1), Cores: []int{1}},
	)
	a4, _, _ := mappedCounts(pa)
	b4, _, _ := mappedCounts(pb)
	if a4 != 512 || b4 != 512 {
		t.Errorf("per-process mappings = %d/%d", a4, b4)
	}
	if pa.RuntimeCycles <= 0 || pb.RuntimeCycles <= 0 {
		t.Error("both processes must record runtimes")
	}
}

func TestSharedHugeBudget(t *testing.T) {
	cfg := testConfig()
	cfg.MaxHugeBytesTotal = uint64(mem.Page2M) // one region total
	m := NewMachine(cfg, nil)
	pa := m.AddProcess("a", testVMA(1), 10)
	pb := m.AddProcess("b", testVMA(1), 10)
	m.Run(
		&Job{Proc: pa, Stream: seqStream(pa.Ranges()[0], 1)},
		&Job{Proc: pb, Stream: seqStream(pb.Ranges()[0], 1)},
	)
	if err := m.Promote2M(pa, pa.Ranges()[0].Start); err != nil {
		t.Fatal(err)
	}
	err := m.Promote2M(pb, pb.Ranges()[0].Start)
	if !IsBudgetExhausted(err) {
		t.Fatalf("shared budget not enforced: %v", err)
	}
	if m.TotalHugeBytes() != uint64(mem.Page2M) {
		t.Errorf("total huge = %d", m.TotalHugeBytes())
	}
}

func TestTickFiresAtInterval(t *testing.T) {
	cfg := testConfig()
	cfg.PromotionInterval = 100
	ticks := 0
	pol := &funcPolicy{tick: func(m *Machine) { ticks++ }}
	m := NewMachine(cfg, pol)
	p := m.AddProcess("t", testVMA(1), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2)}) // 1024 accesses
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
}

// funcPolicy adapts closures to Policy for tests.
type funcPolicy struct {
	fault func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize
	tick  func(m *Machine)
}

func (f *funcPolicy) Name() string { return "test" }
func (f *funcPolicy) OnFault(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
	if f.fault == nil {
		return mem.Page4K
	}
	return f.fault(m, p, a)
}
func (f *funcPolicy) Tick(m *Machine) {
	if f.tick != nil {
		f.tick(m)
	}
}

// tickPromotePolicy is base-fault-only but performs cross-core machinery at
// every tick: it promotes each process's next 2MB region, which shoots down
// translations on every core.
type tickPromotePolicy struct{ n int }

func (p *tickPromotePolicy) Name() string { return "tick-promote" }
func (p *tickPromotePolicy) OnFault(*Machine, *Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}
func (p *tickPromotePolicy) BaseFaultOnly() {}
func (p *tickPromotePolicy) Tick(m *Machine) {
	for _, proc := range m.Procs() {
		r := proc.Ranges()[0]
		if base := r.Start + mem.VirtAddr(p.n)<<21; base < r.End {
			// Best-effort: fragmented blocks may refuse.
			_ = m.Promote2M(proc, base)
		}
	}
	p.n++
}

// runFingerprint collects everything observable about a finished run so
// equivalence checks compare complete machine state, not just headline
// numbers.
func runFingerprint(m *Machine, res RunResult) string {
	s := fmt.Sprintf("res=%+v\n", res)
	for i, c := range m.Cores() {
		s += fmt.Sprintf("core%d cycles=%v acc=%d stall=%v tlb=%d/%d/%d walker=%+v\n",
			i, c.Cycles, c.Accesses, c.StallCycles,
			c.TLB.Accesses(), c.TLB.L1Misses(), c.TLB.Walks(), c.Walker.Stats())
		if c.PCC2M != nil {
			s += fmt.Sprintf("core%d pcc=%+v\n", i, c.PCC2M.Stats())
		}
	}
	for _, p := range m.Procs() {
		s += fmt.Sprintf("proc %s rt=%v faults=%d promo=%d huge=%d touched=%d bloat=%d\n",
			p.Name, p.RuntimeCycles, p.Faults, p.Promotions2M,
			p.HugePages2M(), p.TouchedBytes(), p.BloatBytes())
	}
	return s
}

// goroutineProbe is a base-fault-only policy whose Tick records every live
// goroutine that is not in before.
type goroutineProbe struct {
	before map[string]bool
	ticks  int
	extra  []string
}

func (p *goroutineProbe) Name() string { return "goroutine-probe" }
func (p *goroutineProbe) OnFault(*Machine, *Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}
func (p *goroutineProbe) BaseFaultOnly() {}
func (p *goroutineProbe) Tick(*Machine) {
	p.ticks++
	for id := range goroutineIDs() {
		if !p.before[id] {
			p.extra = append(p.extra, id)
		}
	}
}

// goroutineIDs returns the IDs of the live goroutines, read off the
// "goroutine N [" headers of a full stack dump.
func goroutineIDs() map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(string(buf[:n]), "\n") {
		if rest, ok := strings.CutPrefix(line, "goroutine "); ok {
			if id, _, ok := strings.Cut(rest, " "); ok {
				ids[id] = true
			}
		}
	}
	return ids
}

// TestRunStaysOnCallingGoroutine: Config.Shards is ignored, so even two
// independent single-core jobs under a base-fault-only policy at Shards 4
// run on the caller's goroutine. No policy tick may see a goroutine that
// was not alive before Run.
func TestRunStaysOnCallingGoroutine(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.Shards = 4
	cfg.PromotionInterval = 1_000
	probe := &goroutineProbe{}
	m := NewMachine(cfg, probe)
	var jobs []*Job
	for i := 0; i < 2; i++ {
		p := m.AddProcess(fmt.Sprintf("p%d", i), testVMA(2), 10)
		jobs = append(jobs, &Job{Proc: p, Stream: trace.Slice(mixedStream(p.Ranges()[0], 2)), Cores: []int{i}})
	}
	probe.before = goroutineIDs()
	m.Run(jobs...)
	if probe.ticks == 0 {
		t.Fatal("no policy tick fired")
	}
	if len(probe.extra) > 0 {
		t.Errorf("policy ticks saw goroutines started during Run: %v", probe.extra)
	}
}

func TestFaultTimeHugeAllocation(t *testing.T) {
	cfg := testConfig()
	pol := &funcPolicy{fault: func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
		return mem.Page2M
	}}
	m := NewMachine(cfg, pol)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if p.HugePages2M() != 2 {
		t.Errorf("huge pages = %d, want 2 (fault-time allocation)", p.HugePages2M())
	}
	if p.HugeFaults != 2 {
		t.Errorf("huge faults = %d", p.HugeFaults)
	}
	// Only 2 faults total (one per region), not 1024.
	if p.Faults != 2 {
		t.Errorf("faults = %d, want 2", p.Faults)
	}
}

func TestFaultTimeHugeFallsBackUnderFragmentation(t *testing.T) {
	cfg := testConfig()
	cfg.Phys = physmem.Config{TotalBytes: 8 << 21, MovableFillRatio: 0.5}
	cfg.FragFrac = 1.0 // every block unmovable
	pol := &funcPolicy{fault: func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
		return mem.Page2M
	}}
	m := NewMachine(cfg, pol)
	p := m.AddProcess("t", testVMA(1), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if p.HugePages2M() != 0 {
		t.Error("fully fragmented memory must force 4KB fallback")
	}
	p4, _, _ := mappedCounts(p)
	if p4 != 512 {
		t.Errorf("fallback mappings = %d", p4)
	}
}

func TestPCCRecordsOnlyWarmRegions(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(4), 10)
	r := p.Ranges()[0]
	// One pass: every page's first (and only) walk; the first walk per
	// region is filtered, subsequent pages in the region pass the filter.
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	if m.Core(0).Walker.Stats().ColdFiltered != 4 {
		t.Errorf("cold-filtered = %d, want 4 (one per region)",
			m.Core(0).Walker.Stats().ColdFiltered)
	}
}

func TestDisableColdFilter(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.DisableColdFilter = true
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if m.Core(0).Walker.Stats().ColdFiltered != 0 {
		t.Error("filter disabled: nothing may be cold-filtered")
	}
}

func TestEnable1GPCC(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.Enable1G = true
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2)})
	if m.Core(0).PCC1G == nil {
		t.Fatal("1G PCC must exist")
	}
	if m.Core(0).PCC1G.Len() == 0 {
		t.Error("1G PCC must have tracked the warm 1GB region")
	}
}

func TestMachineString(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	if m.String() == "" {
		t.Error("machine must stringify")
	}
}

func TestStallCyclesTracked(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	res := m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if res.StallCycles <= 0 {
		t.Error("faults must contribute stall cycles")
	}
	if res.StallCycles >= res.Cycles {
		t.Error("stalls must be a subset of cycles")
	}
}

func TestPromotionChargesAllCores(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(1), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1), Cores: []int{0}})
	before0, before1 := m.Core(0).Cycles, m.Core(1).Cycles
	if err := m.Promote2M(p, p.Ranges()[0].Start); err != nil {
		t.Fatal(err)
	}
	if m.Core(0).Cycles <= before0 || m.Core(1).Cycles <= before1 {
		t.Error("shootdown must charge every core")
	}
	if m.BackgroundCycles <= 0 {
		t.Error("promotion copy work must be accounted in the background")
	}
}

func TestBloatAccounting(t *testing.T) {
	pol := &funcPolicy{fault: func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
		return mem.Page2M // greedy: every fault gets a huge page
	}}
	m := NewMachine(testConfig(), pol)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	// Touch just one page per 2MB region: greedy backing bloats the
	// remaining 511 pages of each.
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{
		{Addr: r.Start},
		{Addr: r.Start + mem.VirtAddr(mem.Page2M)},
	})})
	if p.HugePages2M() != 2 {
		t.Fatalf("huge = %d", p.HugePages2M())
	}
	wantBloat := uint64(2 * 511 * 4096)
	if got := p.BloatBytes(); got != wantBloat {
		t.Errorf("bloat = %d, want %d", got, wantBloat)
	}
	if got := p.TouchedBytes(); got != 2*4096 {
		t.Errorf("touched = %d, want %d", got, 2*4096)
	}
}

func TestBloatZeroForBasePages(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if p.BloatBytes() != 0 {
		t.Errorf("base-page mappings can never bloat, got %d", p.BloatBytes())
	}
	if p.TouchedBytes() != p.Footprint() {
		t.Errorf("full sweep must touch everything: %d vs %d",
			p.TouchedBytes(), p.Footprint())
	}
}

func TestBloatShrinksWithDemotion(t *testing.T) {
	pol := &funcPolicy{fault: func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
		return mem.Page2M
	}}
	m := NewMachine(testConfig(), pol)
	p := m.AddProcess("t", testVMA(1), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{{Addr: r.Start}})})
	before := p.BloatBytes()
	if before == 0 {
		t.Fatal("setup: expected bloat")
	}
	if err := m.Demote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	// Demotion remaps at 4KB; in a real kernel the untouched base pages
	// would then be reclaimable — the bloat metric must drop to zero.
	if p.BloatBytes() != 0 {
		t.Errorf("post-demotion bloat = %d", p.BloatBytes())
	}
}

func TestPromotionLogRecordsTrace(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote2M(p, r.Start+mem.VirtAddr(mem.Page2M)); err != nil {
		t.Fatal(err)
	}
	log := m.PromotionLog()
	if len(log) != 2 {
		t.Fatalf("log length = %d", len(log))
	}
	if log[0].Base != mem.PageBase(r.Start, mem.Page2M) || log[0].ProcID != p.ID {
		t.Errorf("log[0] = %+v", log[0])
	}
	if log[0].AtAccess > log[1].AtAccess {
		t.Error("log must be chronologically ordered")
	}
	// The returned slice is a copy.
	log[0].Base = 0
	if m.PromotionLog()[0].Base == 0 {
		t.Error("PromotionLog must return a copy")
	}
}

// TestAddProcessRefusesBadVMAs: AddProcess panics, naming itself, on every
// VMA geometry AddTenant refuses — above all on VMAs past
// the 2^48 reach of the page table, which would alias the ones 2^48 below
// — and still accepts the last 2MB below the limit.
func TestAddProcessRefusesBadVMAs(t *testing.T) {
	cases := []struct {
		name   string
		ranges []mem.Range
	}{
		{"above 2^48", []mem.Range{{Start: 1<<21 + 1<<48, End: 1<<22 + 1<<48}}},
		{"aliasing pair", []mem.Range{{Start: 1 << 21, End: 1 << 22}, {Start: 1<<21 + 1<<48, End: 1<<22 + 1<<48}}},
		{"crossing 2^48", []mem.Range{{Start: 1<<48 - 1<<21, End: 1<<48 + 1<<12}}},
		{"unaligned", []mem.Range{{Start: 1, End: 1 << 21}}},
		{"inverted", []mem.Range{{Start: 1 << 22, End: 1 << 21}}},
		{"empty", []mem.Range{{Start: 1 << 21, End: 1 << 21}}},
		// Overlapping VMAs, in either order, or one inside another: a 4KB
		// page can belong to only one VMA's arrays.
		{"overlapping", []mem.Range{{Start: 1 << 30, End: 1<<30 + 4<<20}, {Start: 1<<30 + 2<<20, End: 1<<30 + 6<<20}}},
		{"overlapping out of order", []mem.Range{{Start: 1<<30 + 2<<20, End: 1<<30 + 6<<20}, {Start: 1 << 30, End: 1<<30 + 4<<20}}},
		{"nested", []mem.Range{{Start: 1 << 30, End: 1<<30 + 8<<20}, {Start: 1<<30 + 3<<12, End: 1<<30 + 5<<12}, {Start: 2 << 30, End: 2<<30 + 1<<12}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMachine(testConfig(), nil)
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), "AddProcess") {
					t.Fatalf("AddProcess(%v) recovered %v, want its validation error", c.ranges, r)
				}
				if len(m.Procs()) != 0 {
					t.Error("a refused process must not be registered")
				}
			}()
			m.AddProcess("bad", c.ranges, 10)
		})
	}
	m := NewMachine(testConfig(), nil)
	top := mem.Range{Start: mem.VirtAddrLimit - 1<<21, End: mem.VirtAddrLimit}
	if p := m.AddProcess("top", []mem.Range{top}, 10); p.Footprint() != 1<<21 {
		t.Errorf("the last 2MB below the limit: footprint %d", p.Footprint())
	}
	touching := []mem.Range{{Start: 1<<30 + 2<<20, End: 1<<30 + 4<<20}, {Start: 1 << 30, End: 1<<30 + 2<<20}}
	if p := m.AddProcess("touching", touching, 10); p.Footprint() != 4<<20 {
		t.Errorf("VMAs that meet without overlapping: footprint %d", p.Footprint())
	}
}

// TestRestoreRefusesOverlappingChurnVMAs: a snapshot's churn process is
// rebuilt from its serialized geometry, so overlapping VMAs there are
// refused with the same error AddProcess panics with.
func TestRestoreRefusesOverlappingChurnVMAs(t *testing.T) {
	src := NewMachine(testConfig(), nil)
	p := src.AddProcess("t", testVMA(2), 10)
	src.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	s := src.State()
	churn := s.Procs[0]
	churn.ID, churn.Name, churn.Churn = s.NextPID, "churn-0", true
	churn.Ranges = []mem.Range{{Start: 1<<40 + 2<<20, End: 1<<40 + 6<<20}, {Start: 1 << 40, End: 1<<40 + 4<<20}}
	s.Procs = append(s.Procs, churn)
	s.NextPID++
	dst := NewMachine(testConfig(), nil)
	dst.AddProcess("t", testVMA(2), 10)
	if err := dst.RestoreState(s); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("restore of overlapping churn VMAs: %v, want the overlap refusal", err)
	}
}
