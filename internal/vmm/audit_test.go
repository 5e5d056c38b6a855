package vmm

import (
	"os"
	"strings"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// TestMain arms the invariant auditor for every machine built in this
// package's tests: any accounting drift panics at the tick that caused it.
func TestMain(m *testing.M) {
	TestForceAudit = true
	os.Exit(m.Run())
}

func TestAuditCleanThroughPromotionLifecycle(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(r, 2)})
	if bad := m.Audit(); len(bad) > 0 {
		t.Fatalf("clean run must audit clean: %v", bad)
	}
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Fatalf("post-promotion: %v", bad)
	}
	if err := m.Demote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Fatalf("post-demotion: %v", bad)
	}
}

func TestAuditDetectsStaleTLBEntry(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	// Forge a translation for a page no table maps.
	bogus := p.Ranges()[0].End + mem.VirtAddr(64<<21)
	m.Core(0).TLB.Fill(bogus, mem.Page4K)
	bad := m.Audit()
	if len(bad) == 0 {
		t.Fatal("forged TLB entry must be reported")
	}
	if !strings.Contains(bad[0], "stale TLB entry") {
		t.Errorf("unexpected violation: %v", bad)
	}
}

func TestAuditDetectsInventoryDrift(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(1), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	// Phantom huge page: inventory says 2MB, page table and physmem say no.
	p.huge2M[p.Ranges()[0].Start] = 1
	bad := m.Audit()
	if len(bad) < 2 {
		t.Fatalf("phantom inventory entry must trip multiple checks, got %v", bad)
	}
}

func TestAuditPolicyHook(t *testing.T) {
	pol := &auditingPolicy{violations: []string{"engine ledger off by 3"}}
	m := NewMachine(testConfig(), pol)
	bad := m.Audit()
	if len(bad) != 1 || bad[0] != "engine ledger off by 3" {
		t.Fatalf("policy auditor findings must surface: %v", bad)
	}
}

// auditingPolicy is a stub policy exercising the PolicyAuditor hook.
type auditingPolicy struct {
	funcPolicy
	violations []string
}

func (a *auditingPolicy) AuditPolicy(*Machine) []string { return a.violations }

// TestFaultCollapseShootsDownStale4K covers the synchronous-THP fault path:
// when a region already holds live 4KB PTEs (an earlier huge allocation
// failed) and a later fault collapses it to 2MB, the old 4KB translations
// must not survive in any TLB.
func TestFaultCollapseShootsDownStale4K(t *testing.T) {
	allow2M := false
	pol := &funcPolicy{fault: func(m *Machine, p *Process, a mem.VirtAddr) mem.PageSize {
		if allow2M {
			return mem.Page2M
		}
		return mem.Page4K
	}}
	m := NewMachine(testConfig(), pol)
	p := m.AddProcess("t", testVMA(1), 10)
	r := p.Ranges()[0]
	// First half of the region faults in at 4KB and caches translations.
	m.Run(&Job{Proc: p, Stream: seqStream(mem.Range{Start: r.Start, End: r.Start + 1<<20}, 1)})
	if !tlbHolds(m.Core(0).TLB, r.Start, mem.Page4K) {
		t.Fatal("setup: expected a cached 4KB translation")
	}
	// A fault on an untouched page now collapses the whole region to 2MB.
	allow2M = true
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{{Addr: r.Start + 1<<20}})})
	if !p.IsHuge2M(r.Start) {
		t.Fatal("setup: region must have collapsed to 2MB")
	}
	if tlbHolds(m.Core(0).TLB, r.Start, mem.Page4K) {
		t.Error("stale 4KB translation survived the huge collapse")
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("audit after collapse: %v", bad)
	}
}

func TestEventTraceRecordsPromotions(t *testing.T) {
	cfg := testConfig()
	cfg.EventLogSize = -1 // default ring size
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(1), 10)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: seqStream(r, 1)})
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, e := range m.Events().Events() {
		kinds[e.Kind] = true
	}
	if !kinds["promote2m"] || !kinds["shootdown"] {
		t.Errorf("expected promote2m and shootdown events, got %v", kinds)
	}
	m.Notef("custom", "n=%d", 1)
	evs := m.Events().Events()
	if last := evs[len(evs)-1]; last.Kind != "custom" || last.Detail != "n=1" {
		t.Errorf("Notef must append: %+v", last)
	}
}

func TestEventTraceDisabledByDefault(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	if m.Events() != nil {
		t.Fatal("tracing must be off unless configured")
	}
	m.Notef("k", "d") // must be a no-op, not a panic
}

func TestMetricsSnapshotIntegral(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2)})
	s := m.Metrics()
	for _, key := range []string{"machine.accesses", "machine.cycles", "tlb.accesses", "ptw.walks", "proc.faults", "physmem.base_allocs"} {
		if _, ok := s[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if s["machine.accesses"] != float64(m.Now()) {
		t.Errorf("machine.accesses = %g, want %d", s["machine.accesses"], m.Now())
	}
	for k, v := range s {
		if v != float64(int64(v)) {
			t.Errorf("metric %q = %v is not integral; merged totals would depend on worker order", k, v)
		}
	}
}
