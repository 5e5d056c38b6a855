package ospolicy

import (
	"testing"

	"pccsim/internal/vmm"
)

// Reaper coverage: every policy that keeps per-process state must drop it the
// instant the process exits (vmm.ProcessReaper) or its address space is torn
// down by exec (vmm.AddressSpaceReaper) — the dead-PID ledger leak this PR
// fixes. The PCCEngine additionally cross-checks itself via AuditPolicy.

// engineWithIdleState runs a hot workload under a demotion-enabled engine so
// the idle tracker accumulates lastSample/coldTicks entries for the process.
func engineWithIdleState(t *testing.T) (*PCCEngine, *vmm.Machine, *vmm.Process) {
	t.Helper()
	cfg := DefaultPCCEngineConfig()
	cfg.EnableDemotion = true
	engine := NewPCCEngine(cfg)
	m := vmm.NewMachine(testConfig(true), engine)
	p := m.AddProcess("t", testVMA(4), 10)
	engine.Bind(0, p)
	m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 60_000)})
	if p.HugePages2M() == 0 {
		t.Fatal("setup: engine must promote")
	}
	if len(engine.lastSample) == 0 {
		t.Fatal("setup: idle tracker must hold samples for the process")
	}
	return engine, m, p
}

func TestPCCEngineReapsExitedProcess(t *testing.T) {
	engine, m, p := engineWithIdleState(t)
	if err := m.ExitProcess(p); err != nil {
		t.Fatal(err)
	}
	for core, q := range engine.coreProc {
		if q == p {
			t.Errorf("core %d still bound to the dead process", core)
		}
	}
	for k := range engine.lastSample {
		if k.pid == p.ID {
			t.Errorf("idle sample for dead pid %d survives exit", p.ID)
		}
	}
	for k := range engine.coldTicks {
		if k.pid == p.ID {
			t.Errorf("cold counter for dead pid %d survives exit", p.ID)
		}
	}
	if bad := engine.AuditPolicy(m); len(bad) > 0 {
		t.Errorf("audit after exit: %v", bad)
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("machine audit after exit: %v", bad)
	}
}

// TestPCCEngineAuditFlagsDeadPIDLedgers re-leaks each ledger entry by hand
// after a clean exit: the auditor must flag every one (this is the check that
// turns a silent leak into a test failure).
func TestPCCEngineAuditFlagsDeadPIDLedgers(t *testing.T) {
	engine, m, p := engineWithIdleState(t)
	base := p.Ranges()[0].Start
	if err := m.ExitProcess(p); err != nil {
		t.Fatal(err)
	}
	engine.lastSample[demoteKey{pid: p.ID, base: base}] = 1
	if bad := engine.AuditPolicy(m); len(bad) == 0 {
		t.Error("audit must flag an idle sample for a dead pid")
	}
	delete(engine.lastSample, demoteKey{pid: p.ID, base: base})

	engine.coldTicks[demoteKey{pid: p.ID, base: base}] = 1
	if bad := engine.AuditPolicy(m); len(bad) == 0 {
		t.Error("audit must flag a cold counter for a dead pid")
	}
	delete(engine.coldTicks, demoteKey{pid: p.ID, base: base})

	engine.coreProc[0] = p
	if bad := engine.AuditPolicy(m); len(bad) == 0 {
		t.Error("audit must flag a core bound to a dead pid")
	}
}

// TestPCCEngineExecResetsIdleTracker: exec keeps the PID and its core binding
// (the process keeps running) but every region-keyed ledger entry describes
// mappings that no longer exist and must go.
func TestPCCEngineExecResetsIdleTracker(t *testing.T) {
	engine, m, p := engineWithIdleState(t)
	if err := m.ExecProcess(p); err != nil {
		t.Fatal(err)
	}
	if engine.coreProc[0] != p {
		t.Error("exec must keep the core binding — the process still runs")
	}
	for k := range engine.lastSample {
		if k.pid == p.ID {
			t.Error("idle sample survives exec teardown")
		}
	}
	for k := range engine.coldTicks {
		if k.pid == p.ID {
			t.Error("cold counter survives exec teardown")
		}
	}
	if bad := engine.AuditPolicy(m); len(bad) > 0 {
		t.Errorf("audit after exec: %v", bad)
	}
}

// TestPCCEngineChurnConservation runs lifecycle churn under the engine with
// per-tick audits armed: the engine/lifecycle/reaped promotion equations must
// hold through arbitrary spawn/exit/exec interleavings.
func TestPCCEngineChurnConservation(t *testing.T) {
	cfg := testConfig(true)
	cfg.AuditEveryTick = true
	cfg.Lifecycle = vmm.LifecycleConfig{
		Enable:      true,
		MaxProcs:    3,
		SpawnProb:   0.9,
		ExecProb:    0.4,
		ExitProb:    0.5,
		VMABytes:    4 << 20,
		TouchFrac:   0.5,
		HugeRegions: 2,
	}
	engine := NewPCCEngine(DefaultPCCEngineConfig())
	m := vmm.NewMachine(cfg, engine)
	p := m.AddProcess("t", testVMA(4), 10)
	engine.Bind(0, p)
	m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 60_000)})
	if m.LifecycleStats().Spawns == 0 || m.Reaped() == (vmm.ReapedTallies{}) {
		t.Fatal("churn must spawn and reap for the conservation check to bite")
	}
	if bad := engine.AuditPolicy(m); len(bad) > 0 {
		t.Errorf("audit after churn: %v", bad)
	}
}

func TestHawkEyeReapsExitedProcess(t *testing.T) {
	h := NewHawkEye(DefaultHawkEyeConfig())
	m := vmm.NewMachine(testConfig(false), h)
	p := m.AddProcess("t", testVMA(4), 10)
	m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 40_000)})
	found := false
	for k := range h.regions {
		if k.pid == p.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("setup: HawkEye must track regions for the process")
	}
	if err := m.ExitProcess(p); err != nil {
		t.Fatal(err)
	}
	for k := range h.regions {
		if k.pid == p.ID {
			t.Error("tracked region pins the dead process after exit")
		}
	}
}
