package vmm

import (
	"fmt"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// Checkpoint/restore equivalence tests: the contract is that a run
// interrupted at ANY point on the access clock — checkpointed, restored into
// a freshly built machine, and resumed — produces results bit-identical to
// the uninterrupted run. These tests sweep cut points chosen to land on
// every scheduler edge: mid-batch, exact serialChunk/jobSlice boundaries,
// exact tick boundaries, one past them, and beyond the end of the stream.

// statefulTestPolicy promotes the first promotable region each tick and
// carries a cross-tick ledger, exercising the StatefulPolicy plumbing
// without importing ospolicy (which would cycle).
type statefulTestPolicy struct {
	ticks    uint64
	promoted uint64
}

type statefulTestPolicyState struct {
	Ticks    uint64
	Promoted uint64
}

func (s *statefulTestPolicy) Name() string { return "stateful-test" }
func (s *statefulTestPolicy) OnFault(*Machine, *Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}
func (s *statefulTestPolicy) Tick(m *Machine) {
	s.ticks++
	for _, p := range m.Procs() {
		for _, r := range p.Ranges() {
			for b := r.Start; b < r.End; b += mem.VirtAddr(mem.Page2M) {
				if p.IsHuge2M(b) {
					continue
				}
				if err := m.Promote2M(p, b); err == nil {
					s.promoted++
					return
				} else if IsNoPhysicalBlock(err) {
					return
				}
			}
		}
	}
}
func (s *statefulTestPolicy) PolicyState() any {
	return statefulTestPolicyState{Ticks: s.ticks, Promoted: s.promoted}
}
func (s *statefulTestPolicy) RestorePolicyState(_ *Machine, st any) error {
	v, ok := st.(statefulTestPolicyState)
	if !ok {
		return fmt.Errorf("stateful-test cannot restore %T", st)
	}
	s.ticks, s.promoted = v.Ticks, v.Promoted
	return nil
}

// simSetup builds identical machines on demand: cfg is shared, policy and
// build produce a fresh policy / fresh processes+jobs (with fresh streams)
// per machine, exactly like an experiment runner reconstructing a sim.
type simSetup struct {
	cfg    Config
	policy func() Policy
	build  func(m *Machine) []*Job
}

func (s simSetup) newMachine() (*Machine, []*Job) {
	var pol Policy
	if s.policy != nil {
		pol = s.policy()
	}
	m := NewMachine(s.cfg, pol)
	return m, s.build(m)
}

// stripVolatile zeroes the state fields allowed to diverge after a restore:
// the TLB hierarchies' internal recency clocks advance differently once the
// L0 filter is cleared (the filtered accesses re-touch their L1 MRU ways).
// That divergence is unobservable — same hits, misses, walks, costs,
// evictions — and everything else must match exactly.
func stripVolatile(s *MachineState) {
	for i := range s.Cores {
		s.Cores[i].TLB = tlb.HierarchyState{}
	}
}

func runUninterrupted(t *testing.T, s simSetup) (RunResult, MachineState) {
	t.Helper()
	m, jobs := s.newMachine()
	res := m.Run(jobs...)
	return res, m.State()
}

// runWithCheckpoint runs machine A to the cut, captures its state, restores
// it into a freshly built machine B, and lets resume finish the run on B.
func runWithCheckpoint(t *testing.T, s simSetup, cut uint64, resume func(*Machine, []*Job) RunResult) (RunResult, MachineState) {
	t.Helper()
	mA, jobsA := s.newMachine()
	if err := mA.StartRun(jobsA...); err != nil {
		t.Fatalf("cut %d: StartRun(A): %v", cut, err)
	}
	mA.RunUntil(cut)
	st := mA.State()

	mB, jobsB := s.newMachine()
	if err := mB.RestoreState(st); err != nil {
		t.Fatalf("cut %d: RestoreState: %v", cut, err)
	}
	res := resume(mB, jobsB)
	return res, mB.State()
}

// checkResumeEquivalence resumes every cut through StartRun/FinishRun.
func checkResumeEquivalence(t *testing.T, s simSetup, cuts []uint64) {
	t.Helper()
	checkResumeVia(t, s, cuts, func(m *Machine, jobs []*Job) RunResult {
		if err := m.StartRun(jobs...); err != nil {
			t.Fatalf("StartRun(B): %v", err)
		}
		return m.FinishRun()
	})
}

// checkResumeVia requires the run resumed by resume from each cut to end
// with the uninterrupted run's RunResult and state.
func checkResumeVia(t *testing.T, s simSetup, cuts []uint64, resume func(*Machine, []*Job) RunResult) {
	t.Helper()
	wantRes, wantState := runUninterrupted(t, s)
	stripVolatile(&wantState)
	for _, cut := range cuts {
		gotRes, gotState := runWithCheckpoint(t, s, cut, resume)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("cut %d: RunResult diverged:\ngot  %+v\nwant %+v", cut, gotRes, wantRes)
		}
		stripVolatile(&gotState)
		if !reflect.DeepEqual(gotState, wantState) {
			t.Errorf("cut %d: final machine state diverged", cut)
		}
	}
}

// TestStartRunFinishRunMatchesRun: the interruptible runner with no stops is
// exactly Run — including the raw TLB state, since nothing was invalidated.
func TestStartRunFinishRunMatchesRun(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.PromotionInterval = 2_000
	s := simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		},
	}
	wantRes, wantState := runUninterrupted(t, s)
	m, jobs := s.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	gotRes := m.FinishRun()
	gotState := m.State()
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("RunResult diverged:\ngot  %+v\nwant %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Error("final state diverged (including raw TLB state: no restore happened)")
	}
}

// TestRunUntilStopsAreInvisible: pausing at arbitrary points (without any
// checkpoint/restore) must not perturb the run at all.
func TestRunUntilStopsAreInvisible(t *testing.T) {
	cfg := testConfig()
	cfg.PromotionInterval = 2_000
	s := simSetup{
		cfg: cfg,
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		},
	}
	wantRes, wantState := runUninterrupted(t, s)
	m, jobs := s.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	// 1 (first access), 97 (mid-batch), 512 (serialChunk edge), 2_000 (tick
	// edge), 2_001 (one past), 5_000 (mid-run).
	for _, stop := range []uint64{1, 97, 512, 2_000, 2_001, 5_000} {
		m.RunUntil(stop)
	}
	gotRes := m.FinishRun()
	gotState := m.State()
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("RunResult diverged:\ngot  %+v\nwant %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Error("final state diverged")
	}
}

// TestCheckpointResumeSingleJob sweeps checkpoint cuts across a single-job
// run under an actively promoting stateful policy with the PCC enabled.
func TestCheckpointResumeSingleJob(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.FragFrac = 0.25
	cfg.Seed = 7
	cfg.PromotionInterval = 2_000
	s := simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		},
	}
	// 6144 total accesses; cuts hit the first access, mid-batch, the
	// serialChunk edge, tick edges and their +1, mid-run, the exact end, and
	// past the end (checkpoint of an already-finished run).
	checkResumeEquivalence(t, s, []uint64{
		1, 97, 512, 513, 2_000, 2_001, 4_000, 5_555, 6_144, 10_000,
	})
}

// TestCheckpointResumeUnderPressure: the pressure model's churn/compaction
// RNG stream position must survive the checkpoint exactly.
func TestCheckpointResumeUnderPressure(t *testing.T) {
	s := simSetup{
		cfg: pressureConfig(),
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 6)}}
		},
	}
	// 12288 accesses, ticks every 2000.
	checkResumeEquivalence(t, s, []uint64{1, 1_999, 2_000, 2_001, 6_100, 12_288})
}

// TestCheckpointResumeMultiJob sweeps cuts across a two-job round-robin run,
// including the exact jobSlice rotation edges.
func TestCheckpointResumeMultiJob(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.PromotionInterval = 2_000
	s := simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			pa := m.AddProcess("a", testVMA(2), 10)
			pb := m.AddProcess("b", testVMA(3), 12)
			return []*Job{
				{Proc: pa, Stream: seqStream(pa.Ranges()[0], 5), Cores: []int{0}},
				{Proc: pb, Stream: seqStream(pb.Ranges()[0], 4), Cores: []int{1}},
			}
		},
	}
	// Job a: 5120 accesses; job b: 6144; total 11264. Cuts cover the
	// rotation quantum (4096) and its neighbours, a tick edge, the point
	// where the shorter job finishes, the exact end, and past the end.
	checkResumeEquivalence(t, s, []uint64{
		1, 4_095, 4_096, 4_097, 8_000, 10_240, 11_264, 20_000,
	})
}

// twoIndependentJobs is a nil-policy setup with one job per core. Job a
// has 5120 accesses and job b 6144; a's last access is access 9216 of the
// run, and the run ends at 11264.
func twoIndependentJobs(cfg Config) simSetup {
	cfg.Cores = 2
	return simSetup{
		cfg: cfg,
		build: func(m *Machine) []*Job {
			pa := m.AddProcess("a", testVMA(2), 10)
			pb := m.AddProcess("b", testVMA(3), 12)
			return []*Job{
				{Proc: pa, Stream: seqStream(pa.Ranges()[0], 5), Cores: []int{0}},
				{Proc: pb, Stream: seqStream(pb.Ranges()[0], 4), Cores: []int{1}},
			}
		},
	}
}

// TestRunResumesRestoredRun: Run on a machine restored mid-run resumes at
// the staged scheduler position instead of replaying the streams from their
// start.
func TestRunResumesRestoredRun(t *testing.T) {
	run := func(m *Machine, jobs []*Job) RunResult { return m.Run(jobs...) }
	cfg := testConfig()
	cfg.PromotionInterval = 2_000
	// The first access, a tick edge, the rotation quantum and its
	// neighbours, the shorter job's last access, and the exact end.
	checkResumeVia(t, twoIndependentJobs(cfg), []uint64{
		1, 2_000, 4_095, 4_096, 4_097, 9_216, 11_264,
	}, run)
	checkResumeVia(t, twoIndependentJobs(pressureConfig()), []uint64{6_100}, run)
}

// TestRefusedStartRunKeepsRestoredPosition: a StartRun refused on a restored
// machine (wrong job count, or streams too short to fast-forward) leaves
// the staged scheduler position in place, so a retry with the right jobs
// still resumes mid-run.
func TestRefusedStartRunKeepsRestoredPosition(t *testing.T) {
	cfg := testConfig()
	cfg.PromotionInterval = 2_000
	checkResumeVia(t, twoIndependentJobs(cfg), []uint64{4_097, 9_216}, func(m *Machine, jobs []*Job) RunResult {
		if err := m.StartRun(jobs[0]); err == nil {
			t.Fatal("StartRun with the wrong job count must fail")
		}
		short := []*Job{
			{Proc: jobs[0].Proc, Stream: trace.Slice(nil), Cores: jobs[0].Cores},
			{Proc: jobs[1].Proc, Stream: trace.Slice(nil), Cores: jobs[1].Cores},
		}
		if err := m.StartRun(short...); err == nil {
			t.Fatal("StartRun with streams shorter than the checkpoint must fail")
		}
		if err := m.StartRun(jobs...); err != nil {
			t.Fatalf("retry: %v", err)
		}
		return m.FinishRun()
	})
}

// TestRunRefusedDuringRun: Run on a machine with a run in progress panics
// before touching it, and the run in progress still finishes exactly.
func TestRunRefusedDuringRun(t *testing.T) {
	s := twoIndependentJobs(testConfig())
	want, _ := runUninterrupted(t, s)
	m, jobs := s.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(5_000)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run during a run in progress must panic")
			}
		}()
		m.Run(jobs...)
	}()
	if got := m.FinishRun(); !reflect.DeepEqual(got, want) {
		t.Errorf("run in progress diverged after the refused Run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCheckpointResumeEveryCutNearTick brute-forces every cut in a window
// around a tick boundary — the densest cluster of state transitions
// (deferred alloc flush, policy tick, pressure work all fire there).
func TestCheckpointResumeEveryCutNearTick(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force cut sweep")
	}
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.PromotionInterval = 1_000
	s := simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(2), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 2)}}
		},
	}
	var cuts []uint64
	for c := uint64(990); c <= 1_010; c++ {
		cuts = append(cuts, c)
	}
	checkResumeEquivalence(t, s, cuts)
}

// TestRestoreStateRejectsMismatches: every structural mismatch between a
// state and its target machine must be refused before anything runs.
func TestRestoreStateRejectsMismatches(t *testing.T) {
	base := simSetup{
		cfg:    testConfig(),
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(2), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 1)}}
		},
	}
	m, jobs := base.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(500)
	good := m.State()

	fresh := func() *Machine {
		fm, _ := base.newMachine()
		return fm
	}

	cases := []struct {
		name   string
		target func() *Machine
		mutate func(*MachineState)
	}{
		{"proc count", func() *Machine {
			fm := NewMachine(base.cfg, &statefulTestPolicy{})
			fm.AddProcess("t", testVMA(2), 10)
			fm.AddProcess("extra", testVMA(1), 10)
			return fm
		}, nil},
		{"proc identity", fresh, func(s *MachineState) { s.Procs[0].Name = "other" }},
		{"vma geometry", fresh, func(s *MachineState) { s.Procs[0].VMAs[0].State = s.Procs[0].VMAs[0].State[:1] }},
		{"page state range", fresh, func(s *MachineState) { s.Procs[0].VMAs[0].State[0] = 200 }},
		{"policy name", func() *Machine {
			fm := NewMachine(base.cfg, nil)
			fm.AddProcess("t", testVMA(2), 10)
			return fm
		}, nil},
		{"missing policy ledger", fresh, func(s *MachineState) { s.PolicyState = nil }},
		{"core count", fresh, func(s *MachineState) { s.Cores = s.Cores[:0] }},
		{"numa off", fresh, func(s *MachineState) {
			s.NUMAPlacements = []NUMAPlacement{{PID: 0, Base: 16 << 20, Node: 0}}
		}},
		{"sched job index", fresh, func(s *MachineState) { s.Sched.JobIdx = 5 }},
		{"sched slice", fresh, func(s *MachineState) { s.Sched.SliceLeft = 0 }},
		{"sched shape", fresh, func(s *MachineState) { s.Sched.Done = nil }},
		{"nil ranges", fresh, func(s *MachineState) { s.Procs[0].Ranges = nil }},
		{"nil vma policies", fresh, func(s *MachineState) { s.Procs[0].VMAPolicies = nil }},
		{"next pid zero", fresh, func(s *MachineState) { s.NextPID = 0 }},
		{"next pid taken", fresh, func(s *MachineState) { s.NextPID = s.Procs[len(s.Procs)-1].ID }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			if tc.mutate != nil {
				// Deep-enough copy for the fields the mutations touch.
				st.Procs = append([]ProcessState(nil), good.Procs...)
				st.Procs[0].VMAs = append([]VMAState(nil), good.Procs[0].VMAs...)
				st.Procs[0].VMAs[0].State = append([]uint8(nil), good.Procs[0].VMAs[0].State...)
				if good.Sched != nil {
					sc := *good.Sched
					sc.Consumed = append([]uint64(nil), good.Sched.Consumed...)
					sc.Done = append([]bool(nil), good.Sched.Done...)
					st.Sched = &sc
				}
				tc.mutate(&st)
			}
			if err := tc.target().RestoreState(st); err == nil {
				t.Error("mismatched state must be refused")
			}
		})
	}

	// The unmutated state into a fresh identical machine must succeed.
	if err := fresh().RestoreState(good); err != nil {
		t.Fatalf("control restore failed: %v", err)
	}
}

// TestRestoreIntoBusyMachineRefused: a machine mid-run cannot be a restore
// target.
func TestRestoreIntoBusyMachineRefused(t *testing.T) {
	s := simSetup{
		cfg: testConfig(),
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(1), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 1)}}
		},
	}
	m, jobs := s.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(10)
	st := m.State()
	if err := m.RestoreState(st); err == nil {
		t.Error("restore into a machine with a run in progress must fail")
	}
	m.FinishRun()
}
