package vmm

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// TestTransTableSurvivesRuns: the persistent translation table must stay
// armed across Run calls — that is the whole point of promoting the
// step-scoped filter to a persistent structure. (Correctness does not depend
// on persistence — the table is exact — so this is a white-box pin of the
// performance property.)
func TestTransTableSurvivesRuns(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = false
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(1), 0)
	r := p.Ranges()[0]

	acc := []trace.Access{{Addr: r.Start}, {Addr: r.Start + 4096}, {Addr: r.Start}}
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})

	c := m.Core(0)
	vpn := mem.PageNum(uint64(r.Start) >> 12)
	s := c.tt.slots4K[c.tt.idx4K(vpn)]
	if s.gen != c.tt.gen || s.page != vpn {
		t.Fatalf("slot for %#x not armed after run: slot gen %d page %#x, table gen %d",
			uint64(r.Start), s.gen, uint64(s.page), c.tt.gen)
	}

	// A second run must find it still armed (no end-of-run invalidation).
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
	if s := c.tt.slots4K[c.tt.idx4K(vpn)]; s.gen != c.tt.gen || s.page != vpn {
		t.Error("slot invalidated between runs; the table must persist")
	}
}

// TestTransTableInvalidatedByRestore: restoring machine state must bump the
// translation-table generation so no slot armed before the restore can serve
// afterwards — the restored mappings may be arbitrarily different from the
// ones the slots mirror. This pins the generation-bump invalidation the
// checkpoint/resume equivalence suites rely on.
func TestTransTableInvalidatedByRestore(t *testing.T) {
	cfg := testConfig()
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(2), 0)
	r := p.Ranges()[0]

	// Capture a pre-promotion checkpoint, with the table armed for the
	// 4K-mapped first page.
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{
		{Addr: r.Start}, {Addr: r.Start + 4096}, {Addr: r.Start},
	})})
	st := m.State()

	c := m.Core(0)
	gen := c.tt.gen
	vpn := mem.PageNum(uint64(r.Start) >> 12)
	if s := c.tt.slots4K[c.tt.idx4K(vpn)]; s.gen != gen || s.page != vpn {
		t.Fatalf("slot not armed before restore")
	}

	// Promote the region (this itself bumps the generation via the
	// shootdown), re-arm the table with 2M-class translations, then restore
	// the pre-promotion state: every slot armed since the checkpoint is
	// stale — the pages are 4K-mapped again.
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{
		{Addr: r.Start}, {Addr: r.Start + 4096}, {Addr: r.Start},
	})})
	genArmed := c.tt.gen
	if err := m.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if c.tt.gen <= genArmed {
		t.Errorf("restore left table generation at %d (armed at %d); must bump past every armed slot", c.tt.gen, genArmed)
	}
	hpn := mem.PageNum(uint64(r.Start) >> 21)
	if s := c.tt.slots2M[c.tt.idx2M(hpn)]; s.gen == c.tt.gen {
		t.Error("2M slot armed before restore still validates; stale translations could be served")
	}
	if c.l0Has {
		t.Error("register line survived restore")
	}

	// Behavioral check: the restored machine must now translate through the
	// restored (4K) mappings, matching a machine that never promoted.
	walks := c.TLB.Walks()
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{{Addr: r.Start + 2*4096}})})
	if got := c.TLB.Walks(); got != walks+1 {
		t.Errorf("post-restore access to a cold page did %d walks, want 1", got-walks)
	}
}

// TestSteadyStateRunAllocsLivePressure: a live-generated stream (no
// recording) through Machine.Run with the dynamic pressure model active must
// not allocate per access — churn, compaction and watermark demotion all run
// at tick barriers and their state is preallocated or amortized. Only replay
// streams were pinned before; this covers the shape the pressure experiments
// actually run.
func TestSteadyStateRunAllocsLivePressure(t *testing.T) {
	oldAudit := TestForceAudit
	TestForceAudit = false
	defer func() { TestForceAudit = oldAudit }()

	cfg := testConfig()
	cfg.PromotionInterval = 20_000
	cfg.Pressure = PressureConfig{
		Enable: true, ChurnAllocFrames: 256, ChurnFreeFrames: 128, ChurnPinnedFrac: 0.01,
		CompactBudgetFrames: 512, DemoteWatermarkBlocks: 2, MaxDemotionsPerTick: 1,
	}
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(8), 0)
	r := p.Ranges()[0]

	const accesses = 200_000
	live := func() trace.Stream {
		return trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), accesses)
	}
	// Warm: fault pages in, let Run and the pressure model allocate their
	// reusable state.
	m.Run(&Job{Proc: p, Stream: live()})

	avg := testing.AllocsPerRun(5, func() {
		m.Run(&Job{Proc: p, Stream: live()})
	})
	perAccess := avg / float64(accesses)
	if perAccess > 0.001 {
		t.Errorf("live Run under pressure allocates %.5f objects/access (%.0f per run over %d accesses), want ~0",
			perAccess, avg, accesses)
	}
}
