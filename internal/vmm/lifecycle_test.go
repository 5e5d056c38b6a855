package vmm

import "testing"

// lifecycleConfig returns an aggressive churn configuration on top of the
// pressure model: small address spaces, high spawn/exec/exit probabilities,
// and per-spawn promotion attempts, so a short run exercises every lifecycle
// path many times over (TestForceAudit keeps the invariant auditor armed
// after every tick).
func lifecycleConfig() Config {
	cfg := pressureConfig()
	cfg.Lifecycle = LifecycleConfig{
		Enable:      true,
		MaxProcs:    3,
		SpawnProb:   0.9,
		ExecProb:    0.5,
		ExitProb:    0.5,
		VMABytes:    4 << 20,
		TouchFrac:   0.5,
		HugeRegions: 2,
	}
	return cfg
}

// TestLifecycleChurnRunsAndConserves drives a multi-job run with lifecycle
// churn, pressure demotion and per-tick audits, and checks the machinery
// actually fired: processes spawned, exited and exec'd, churn promotions
// happened, and the reaped tallies plus live counters conserve the
// machine-wide promotion/demotion totals.
func TestLifecycleChurnRunsAndConserves(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.Cores = 2
	m := NewMachine(cfg, nil)
	pa := m.AddProcess("a", testVMA(2), 10)
	pb := m.AddProcess("b", testVMA(3), 10)
	m.Run(
		&Job{Proc: pa, Stream: seqStream(pa.Ranges()[0], 6), Cores: []int{0}},
		&Job{Proc: pb, Stream: seqStream(pb.Ranges()[0], 5), Cores: []int{1}},
	)

	ls := m.LifecycleStats()
	if ls.Spawns == 0 {
		t.Fatal("aggressive churn config must spawn")
	}
	if ls.Exits == 0 && ls.Execs == 0 {
		t.Error("churn must exit or exec at least once")
	}
	if ls.Promotions2M == 0 {
		t.Error("churn populate must promote (HugeRegions=2 with free blocks)")
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("audit after churn run: %v", bad)
	}
	// Conservation: every lifecycle promotion is recorded either by a live
	// churn process or in the reaped tallies.
	var live uint64
	for _, p := range m.Procs() {
		if p.churn {
			live += p.Promotions2M
		}
	}
	if ls.Promotions2M != live+m.Reaped().Promotions2M {
		t.Errorf("lifecycle promoted %d but live churn %d + reaped %d",
			ls.Promotions2M, live, m.Reaped().Promotions2M)
	}
}

// TestLifecycleCheckpointResume: the lifecycle RNG position, churn process
// address spaces, and reaped tallies must all survive a checkpoint cut at
// arbitrary points — including cuts with live churn processes mid-flight.
func TestLifecycleCheckpointResume(t *testing.T) {
	cfg := lifecycleConfig()
	s := simSetup{
		cfg: cfg,
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 6)}}
		},
	}
	// 12288 accesses, ticks every 2000: cuts at the first access, just
	// before/on/after tick edges (where churn fires), mid-run, the end, and
	// past the end.
	checkResumeEquivalence(t, s, []uint64{1, 1_999, 2_000, 2_001, 6_100, 9_999, 12_288, 20_000})
}

// TestExitProcessTeardownReleasesEverything: exit returns every huge frame,
// unmaps the page tables, erases the process from the machine, accumulates
// its counters into the reaped tallies, and leaves every audit invariant
// holding.
func TestExitProcessTeardownReleasesEverything(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	base := p.Ranges()[0].Start
	if err := m.Promote2M(p, base); err != nil {
		t.Fatal(err)
	}
	if m.Phys().HugePagesInUse() != 1 {
		t.Fatal("promotion must hold one huge page")
	}
	faults, promos := p.Faults, p.Promotions2M

	if err := m.ExitProcess(p); err != nil {
		t.Fatal(err)
	}
	if len(m.Procs()) != 0 {
		t.Error("process must be unregistered")
	}
	if got := m.Phys().HugePagesInUse(); got != 0 {
		t.Errorf("%d huge pages survive exit", got)
	}
	r := m.Reaped()
	if r.Faults != faults || r.Promotions2M != promos {
		t.Errorf("reaped = %+v, want faults %d, promotions %d", r, faults, promos)
	}
	if m.LifecycleStats().Exits != 1 {
		t.Error("API exit must count")
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("audit after exit: %v", bad)
	}
	if err := m.ExitProcess(p); err == nil {
		t.Error("double exit must fail")
	}
}

// TestAddressReuseAfterExitIsClean is the stale-translation regression: a
// second process mapped at the very addresses a dead one used must behave
// exactly like a process on a fresh machine — any TLB, paging-structure
// cache, PCC or persistent-translation-table entry surviving the teardown
// would perturb its run (or trip the per-tick audit).
func TestAddressReuseAfterExitIsClean(t *testing.T) {
	// runSecond measures the second process's run as counter deltas — the
	// machine clocks are cumulative, so absolute values differ between a
	// fresh machine and one with history. Any stale translation would show
	// up as fewer walks, TLB misses or faults.
	type delta struct {
		cycles, stall         float64
		walks, misses, faults uint64
	}
	runSecond := func(m *Machine) delta {
		c := m.Core(0)
		before := delta{
			cycles: c.Cycles, stall: c.StallCycles,
			walks: c.TLB.Walks(), misses: c.TLB.L1Misses(),
		}
		p := m.AddProcess("second", testVMA(2), 10)
		m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2)})
		return delta{
			cycles: c.Cycles - before.cycles,
			stall:  c.StallCycles - before.stall,
			walks:  c.TLB.Walks() - before.walks,
			misses: c.TLB.L1Misses() - before.misses,
			faults: p.Faults,
		}
	}

	// Machine that lived through a predecessor at the same VAs.
	m := NewMachine(testConfig(), nil)
	a := m.AddProcess("first", testVMA(2), 10)
	m.Run(&Job{Proc: a, Stream: seqStream(a.Ranges()[0], 1)})
	if err := m.Promote2M(a, a.Ranges()[0].Start); err != nil {
		t.Fatal(err)
	}
	if err := m.ExitProcess(a); err != nil {
		t.Fatal(err)
	}
	got := runSecond(m)
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("audit after reuse run: %v", bad)
	}

	// Reference: the same run on a machine with no history.
	want := runSecond(NewMachine(testConfig(), nil))
	if got != want {
		t.Errorf("address reuse after exit perturbed the run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestExecProcessClearsMappingsKeepsCounters: exec(2) semantics — the
// address space empties (page tables, huge inventory, VMA state), the PID
// and counters survive, and the VMA lookup cache is dropped (the stale
// lastVMA pointer this PR fixes).
func TestExecProcessClearsMappingsKeepsCounters(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if err := m.Promote2M(p, p.Ranges()[0].Start); err != nil {
		t.Fatal(err)
	}
	if p.lastVMA == nil {
		t.Fatal("faulting must have warmed the VMA lookup cache")
	}
	faults := p.Faults
	id := p.ID

	if err := m.ExecProcess(p); err != nil {
		t.Fatal(err)
	}
	if p.lastVMA != nil {
		t.Error("teardown must drop the VMA lookup cache (stale-pointer bug)")
	}
	if n4k, n2m, n1g := mappedCounts(p); n4k != 0 || n2m != 0 || n1g != 0 {
		t.Errorf("mappings survive exec: %d/%d/%d leaves", n4k, n2m, n1g)
	}
	if p.HugePages2M() != 0 || m.Phys().HugePagesInUse() != 0 {
		t.Error("huge pages survive exec")
	}
	if p.Faults != faults || p.ID != id {
		t.Error("exec must keep the PID and counters")
	}
	if m.LifecycleStats().Execs != 1 {
		t.Error("API exec must count")
	}
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("audit after exec: %v", bad)
	}
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)})
	if bad := m.Audit(); len(bad) > 0 {
		t.Errorf("audit after post-exec run: %v", bad)
	}
}

// TestExitProcessRefusesActiveJob: a process with an unfinished job in an
// interruptible run cannot exit (the executor holds its pointer); after the
// run finishes it can.
func TestExitProcessRefusesActiveJob(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	if err := m.StartRun(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 1)}); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(100)
	if err := m.ExitProcess(p); err == nil {
		t.Fatal("exit of a process with an active job must fail")
	}
	if err := m.ExecProcess(p); err == nil {
		t.Fatal("exec of a process with an active job must fail")
	}
	m.FinishRun()
	if err := m.ExitProcess(p); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleDisabledByDefault: the default configuration draws nothing
// from the lifecycle RNG and never mutates the process table.
func TestLifecycleDisabledByDefault(t *testing.T) {
	m := NewMachine(testConfig(), nil)
	p := m.AddProcess("t", testVMA(2), 10)
	m.Run(&Job{Proc: p, Stream: seqStream(p.Ranges()[0], 2)})
	if ls := m.LifecycleStats(); ls != (LifecycleStats{}) {
		t.Errorf("lifecycle fired while disabled: %+v", ls)
	}
	if m.lifeRNG != nil {
		t.Error("lifecycle RNG must stay untouched while disabled")
	}
	if len(m.Procs()) != 1 {
		t.Error("process table must be untouched")
	}
}
