package vmm

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// mixedStream builds the hot/cold access mix the L0 filter sees in practice:
// cache-line-granular runs inside single 4KB pages (filter hits), page-stride
// sweeps (filter misses, L1/L2 traffic) and sparse far jumps (walks), with
// thread IDs alternating so multi-core dispatch is exercised.
func mixedStream(r mem.Range, rounds int) []trace.Access {
	var acc []trace.Access
	for rep := 0; rep < rounds; rep++ {
		// Cache-line runs within each page of a 1MB window.
		winBase := r.Start + mem.VirtAddr(rep%4)<<20
		for a := winBase; a < winBase+1<<20; a += mem.VirtAddr(mem.Page4K) {
			for off := mem.VirtAddr(0); off < 512; off += 64 {
				acc = append(acc, trace.Access{Addr: a + off, Thread: len(acc) % 3})
			}
		}
		// Sparse sweep of the whole range.
		for a := r.Start; a < r.End; a += 1 << 16 {
			acc = append(acc, trace.Access{Addr: a, Thread: len(acc) % 3})
		}
	}
	return acc
}

// promoteTopPolicy promotes core 0's hottest 2MB candidate each tick, so the
// run interleaves shootdowns (which clear the L0 filter) with hot access runs.
func promoteTopPolicy() Policy {
	return &funcPolicy{tick: func(m *Machine) {
		c := m.Core(0)
		if c.PCC2M == nil {
			return
		}
		for _, cand := range c.PCC2M.Dump() {
			if m.Promote2M(m.Procs()[0], cand.Region.Base) == nil {
				return
			}
		}
	}}
}

// TestSingleCoreDispatchEquivalence: a job with Cores=[0] hands each whole
// segment to the kernel, while Cores=[0,0] takes the multi-core dispatch,
// which splits segments into per-core runs by thread; every access still
// lands on core 0, so each segment is one run. The two paths must produce
// bit-identical results.
func TestSingleCoreDispatchEquivalence(t *testing.T) {
	run := func(cores []int) (RunResult, *Core, *Process) {
		cfg := testConfig()
		cfg.FragFrac = 0.25
		m := NewMachine(cfg, promoteTopPolicy())
		p := m.AddProcess("t", testVMA(16), 12)
		acc := mixedStream(p.Ranges()[0], 6)
		res := m.Run(&Job{Proc: p, Stream: trace.Slice(acc), Cores: cores})
		return res, m.Core(0), p
	}
	resA, coreA, procA := run([]int{0})
	resB, coreB, procB := run([]int{0, 0})

	if resA.Cycles != resB.Cycles || resA.Accesses != resB.Accesses ||
		resA.Walks != resB.Walks || resA.L1Misses != resB.L1Misses ||
		resA.StallCycles != resB.StallCycles ||
		resA.Promotions != resB.Promotions || resA.HugePages2M != resB.HugePages2M {
		t.Errorf("run results diverge:\n single=%+v\n dual  =%+v", resA, resB)
	}
	if coreA.Cycles != coreB.Cycles || coreA.Accesses != coreB.Accesses {
		t.Errorf("core counters diverge: %v/%v vs %v/%v",
			coreA.Cycles, coreA.Accesses, coreB.Cycles, coreB.Accesses)
	}
	if a, b := coreA.TLB.Accesses(), coreB.TLB.Accesses(); a != b {
		t.Errorf("TLB accesses diverge: %d vs %d", a, b)
	}
	if a, b := coreA.TLB.L1Misses(), coreB.TLB.L1Misses(); a != b {
		t.Errorf("TLB L1 misses diverge: %d vs %d", a, b)
	}
	if a, b := coreA.Walker.Stats(), coreB.Walker.Stats(); a != b {
		t.Errorf("walker stats diverge: %+v vs %+v", a, b)
	}
	if a, b := coreA.PCC2M.Stats(), coreB.PCC2M.Stats(); a != b {
		t.Errorf("PCC stats diverge: %+v vs %+v", a, b)
	}
	if a, b := procA.BloatBytes(), procB.BloatBytes(); a != b {
		t.Errorf("bloat diverges: %d vs %d", a, b)
	}
	if a, b := procA.TouchedBytes(), procB.TouchedBytes(); a != b {
		t.Errorf("touched bytes diverge: %d vs %d", a, b)
	}
	if procA.Faults != procB.Faults || procA.Promotions2M != procB.Promotions2M {
		t.Errorf("process accounting diverges: faults %d/%d promotions %d/%d",
			procA.Faults, procB.Faults, procA.Promotions2M, procB.Promotions2M)
	}
}

// TestLRUOrderUnchangedByMRUFastPath: replaying the same stream through one
// machine twice (second replay fully warm, so the TLB MRU hints and the L0
// filter short-circuit aggressively) must leave the TLB with the same hit
// accounting a cold-structure run accumulates in its warm phase — i.e. the
// fast paths only skip work, never change what would have hit or missed.
func TestLRUOrderUnchangedByMRUFastPath(t *testing.T) {
	cfg := testConfig()
	mk := func() (*Machine, *Process, []trace.Access) {
		m := NewMachine(cfg, nil)
		p := m.AddProcess("t", testVMA(8), 0)
		return m, p, mixedStream(p.Ranges()[0], 3)
	}

	// Reference: two fresh machines, run warm-up then measure one pass.
	m1, p1, acc := mk()
	m1.Run(&Job{Proc: p1, Stream: trace.Slice(acc)})
	before := m1.Core(0).TLB.Accesses()
	beforeMiss := m1.Core(0).TLB.L1Misses()
	m1.Run(&Job{Proc: p1, Stream: trace.Slice(acc)})
	warmAccesses := m1.Core(0).TLB.Accesses() - before
	warmMisses := m1.Core(0).TLB.L1Misses() - beforeMiss

	// Same warm pass on an identically prepared machine must match exactly.
	m2, p2, acc2 := mk()
	m2.Run(&Job{Proc: p2, Stream: trace.Slice(acc2)})
	b2 := m2.Core(0).TLB.Accesses()
	b2m := m2.Core(0).TLB.L1Misses()
	m2.Run(&Job{Proc: p2, Stream: trace.Slice(acc2)})
	if got := m2.Core(0).TLB.Accesses() - b2; got != warmAccesses {
		t.Errorf("warm accesses = %d, want %d", got, warmAccesses)
	}
	if got := m2.Core(0).TLB.L1Misses() - b2m; got != warmMisses {
		t.Errorf("warm misses = %d, want %d", got, warmMisses)
	}
}

// TestSteadyStateRunAllocs: once a machine is warm (pages faulted in, batch
// buffer allocated, NUMA regions placed), running a materialized stream
// through Run must not allocate per access — the hot path is
// allocation-free, with and without NUMA placement. Per-Run setup (the
// live-job bookkeeping and the stream cursor) is a small constant.
func TestSteadyStateRunAllocs(t *testing.T) {
	// The audit walks every structure each tick and allocates scratch;
	// it is forced on suite-wide, so opt this machine out explicitly.
	oldAudit := TestForceAudit
	TestForceAudit = false
	defer func() { TestForceAudit = oldAudit }()

	for name, cfg := range map[string]Config{
		"fast":            testConfig(),
		"numa-interleave": numaConfig(NUMAInterleave),
	} {
		m := NewMachine(cfg, nil)
		p := m.AddProcess("t", testVMA(8), 0)
		acc := mixedStream(p.Ranges()[0], 12)
		accesses := len(acc)
		if accesses == 0 {
			t.Fatal("empty stream")
		}
		// Warm: fault every page in and let Run allocate its reusable buffers.
		m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})

		avg := testing.AllocsPerRun(5, func() {
			m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
		})
		perAccess := avg / float64(accesses)
		if perAccess > 0.001 {
			t.Errorf("%s: steady-state Run allocates %.4f objects/access (%.0f per run over %d accesses), want 0",
				name, perAccess, avg, accesses)
		}
	}
}

// TestL0FilterClearedByInvalidation: after a translation flush for a region,
// the next access must re-walk (refreshing the OS liveness signal) even if it
// repeats the immediately preceding access — i.e. the step-level filter
// cannot serve a flushed translation.
func TestL0FilterClearedByInvalidation(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = false
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(1), 0)
	r := p.Ranges()[0]
	a := r.Start

	rep := func(n int) []trace.Access {
		out := make([]trace.Access, n)
		for i := range out {
			out[i] = trace.Access{Addr: a}
		}
		return out
	}
	m.Run(&Job{Proc: p, Stream: trace.Slice(rep(8))})
	walksBefore := m.Core(0).TLB.Walks()

	m.InvalidateTranslations(p, a)
	m.Run(&Job{Proc: p, Stream: trace.Slice(rep(8))})
	if got := m.Core(0).TLB.Walks(); got != walksBefore+1 {
		t.Errorf("walks after flush = %d, want %d (exactly one re-walk)", got, walksBefore+1)
	}
}
