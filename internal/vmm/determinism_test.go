package vmm

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
)

// TestRunDeterminism: two machines with identical configuration and streams
// must produce bit-identical results — the property the paper's two-step
// (simulate, then replay on real hardware) methodology depends on, and the
// foundation of every experiment comparison in this repo.
func TestRunDeterminism(t *testing.T) {
	run := func() RunResult {
		cfg := testConfig()
		cfg.FragFrac = 0.5
		cfg.Seed = 42
		m := NewMachine(cfg, nil)
		p := m.AddProcess("t", testVMA(8), 12)
		r := p.Ranges()[0]
		// A deterministic mixed stream: sequential + strided revisits.
		var acc []trace.Access
		for rep := 0; rep < 3; rep++ {
			for a := r.Start; a < r.End; a += mem.VirtAddr(4096 * (rep + 1)) {
				acc = append(acc, trace.Access{Addr: a})
			}
		}
		res := m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Walks != b.Walks || a.L1Misses != b.L1Misses {
		t.Errorf("non-deterministic run: %+v vs %+v", a, b)
	}
}

// TestMultiprocessCompletionOrder: a short job's process records its runtime
// when its stream ends, long before the longer job finishes — the mechanism
// behind Fig. 9's "mcf finishes first" behaviour.
func TestMultiprocessCompletionOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	m := NewMachine(cfg, nil)
	short := m.AddProcess("short", testVMA(1), 10)
	long := m.AddProcess("long", testVMA(4), 10)

	mk := func(r mem.Range, rounds int) trace.Stream {
		var acc []trace.Access
		for i := 0; i < rounds; i++ {
			for a := r.Start; a < r.End; a += mem.VirtAddr(mem.Page4K) {
				acc = append(acc, trace.Access{Addr: a})
			}
		}
		return trace.Slice(acc)
	}
	res := m.Run(
		&Job{Proc: short, Stream: mk(short.Ranges()[0], 1), Cores: []int{0}},
		&Job{Proc: long, Stream: mk(long.Ranges()[0], 8), Cores: []int{1}},
	)
	if short.RuntimeCycles >= long.RuntimeCycles {
		t.Errorf("short (%f) must finish before long (%f)",
			short.RuntimeCycles, long.RuntimeCycles)
	}
	// Wall-clock is the max.
	if res.Cycles < long.RuntimeCycles {
		t.Error("machine cycles must cover the longest process")
	}
}

// TestInterleavedJobsShareClock: OS ticks fire on the global access clock,
// so two co-running jobs see promotion activity interleaved with both.
func TestInterleavedJobsShareClock(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.PromotionInterval = 1000
	ticks := 0
	m := NewMachine(cfg, &funcPolicy{tick: func(*Machine) { ticks++ }})
	a := m.AddProcess("a", testVMA(1), 10)
	b := m.AddProcess("b", testVMA(1), 10)
	m.Run(
		&Job{Proc: a, Stream: seqStream(a.Ranges()[0], 2), Cores: []int{0}},
		&Job{Proc: b, Stream: seqStream(b.Ranges()[0], 2), Cores: []int{1}},
	)
	// 2048 total accesses -> 2 ticks regardless of how they interleave.
	if ticks != 2 {
		t.Errorf("ticks = %d, want 2", ticks)
	}
}

// TestFragmentationLimitsIdeal: with heavily fragmented physical memory
// even the all-huge fault policy degrades to base pages once blocks run
// out, and never panics.
func TestFragmentationLimitsIdeal(t *testing.T) {
	cfg := testConfig()
	cfg.Phys = physmem.Config{TotalBytes: 16 << 21, MovableFillRatio: 0.5}
	cfg.FragFrac = 0.75 // 4 usable of 16 blocks
	pol := &funcPolicy{fault: func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
		return mem.Page2M
	}}
	m := NewMachine(cfg, pol)
	p := m.AddProcess("t", testVMA(8), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if p.HugePages2M() != 4 {
		t.Errorf("huge = %d, want the 4 usable blocks", p.HugePages2M())
	}
	// Remaining regions fell back to base pages.
	p4, _, _ := mappedCounts(p)
	if p4 != 4*512 {
		t.Errorf("base pages = %d, want %d", p4, 4*512)
	}
}

// TestThreeProcessFairness: three co-running processes on three cores each
// get their own page table, runtime, and huge accounting, and a shared
// budget is split among them without starvation under round-robin-like
// direct promotion.
func TestThreeProcessFairness(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 3
	cfg.MaxHugeBytesTotal = 3 << 21 // one region each if split fairly
	m := NewMachine(cfg, nil)
	var procs []*Process
	for i := 0; i < 3; i++ {
		p := m.AddProcess("p"+string(rune('a'+i)), testVMA(2), 10)
		procs = append(procs, p)
	}
	var jobs []*Job
	for i, p := range procs {
		jobs = append(jobs, &Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2), Cores: []int{i}})
	}
	m.Run(jobs...)
	// Round-robin promotion by hand: one region per process in turn.
	for _, p := range procs {
		if err := m.Promote2M(p, p.Ranges()[0].Start); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	// The shared budget is now exhausted for everyone.
	for _, p := range procs {
		err := m.Promote2M(p, p.Ranges()[0].Start+mem.VirtAddr(mem.Page2M))
		if !IsPromoteKind(err, PromoteBudgetExhausted) {
			t.Fatalf("%s: err = %v", p.Name, err)
		}
	}
	if m.TotalHugeBytes() != 3<<21 {
		t.Errorf("total huge = %d", m.TotalHugeBytes())
	}
	for _, p := range procs {
		if p.HugePages2M() != 1 {
			t.Errorf("%s: huge = %d, want 1", p.Name, p.HugePages2M())
		}
	}
}
