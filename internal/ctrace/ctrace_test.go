package ctrace

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/ospolicy"
	"pccsim/internal/physmem"
	"pccsim/internal/snapshot"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

func testVMA(nRegions int) []mem.Range {
	start := mem.VirtAddr(48 << 20)
	return []mem.Range{{Start: start, End: start + mem.VirtAddr(nRegions)<<21}}
}

func hotStream(r mem.Range, n int) trace.Stream {
	pages := int(r.Len() >> 12)
	var acc []trace.Access
	p := 0
	for i := 0; i < n; i++ {
		acc = append(acc, trace.Access{Addr: r.Start + mem.VirtAddr(p)<<12})
		p = (p + 3) % pages
	}
	return trace.Slice(acc)
}

func liveConfig() vmm.Config {
	cfg := vmm.DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 64 << 21}
	cfg.PromotionInterval = 10_000
	cfg.EnablePCC = true
	return cfg
}

// runLive performs the paper's step one: live PCC simulation producing a
// candidate trace.
func runLive(t *testing.T) (*Trace, vmm.RunResult) {
	t.Helper()
	engine := ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
	m := vmm.NewMachine(liveConfig(), engine)
	p := m.AddProcess("wl", testVMA(8), 10)
	engine.Bind(0, p)
	res := m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 120_000)})
	if res.Promotions == 0 {
		t.Fatal("live run must promote")
	}
	return FromMachine(m), res
}

func TestRoundTripSerialization(t *testing.T) {
	tr, _ := runLive(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("events %d != %d", len(back.Events), len(tr.Events))
	}
	for i := range back.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, back.Events[i], tr.Events[i])
		}
	}
}

func TestSaveLoad(t *testing.T) {
	tr, _ := runLive(t)
	path := filepath.Join(t.TempDir(), "cands.jsonl")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatal("load must round-trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestReplayReproducesLiveRun is the methodology check: replaying the
// candidate trace on a fresh machine (the paper's step two) must promote
// the same regions and land within a small tolerance of the live run's
// cycle count and walk rate.
func TestReplayReproducesLiveRun(t *testing.T) {
	tr, live := runLive(t)

	replay := NewReplayPolicy(tr)
	cfg := liveConfig()
	cfg.EnablePCC = false        // step two has no PCC hardware
	cfg.PromotionInterval = 1000 // fine-grained replay timing
	m := vmm.NewMachine(cfg, replay)
	p := m.AddProcess("wl", testVMA(8), 10)
	res := m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 120_000)})

	if res.HugePages2M != live.HugePages2M {
		t.Errorf("replay huge pages = %d, live = %d", res.HugePages2M, live.HugePages2M)
	}
	if replay.Remaining() != 0 {
		t.Errorf("%d trace events never fired", replay.Remaining())
	}
	// Cycle counts differ slightly (replay ticks are finer; promotion
	// stalls shift), but must agree within 5%.
	if d := math.Abs(res.Cycles-live.Cycles) / live.Cycles; d > 0.05 {
		t.Errorf("replay cycles diverge %.1f%% from live", 100*d)
	}
	if d := math.Abs(res.PTWRate - live.PTWRate); d > 0.02 {
		t.Errorf("replay PTW %.4f vs live %.4f", res.PTWRate, live.PTWRate)
	}
}

func TestReplaySkipsUnknownProcess(t *testing.T) {
	tr := &Trace{Events: []vmm.PromotionEvent{{AtAccess: 1, ProcID: 99, Base: 48 << 20}}}
	replay := NewReplayPolicy(tr)
	cfg := liveConfig()
	cfg.EnablePCC = false
	cfg.PromotionInterval = 100
	m := vmm.NewMachine(cfg, replay)
	p := m.AddProcess("wl", testVMA(1), 10)
	m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 1000)})
	if replay.Remaining() != 0 {
		t.Error("unknown-process events must be consumed, not wedge the replay")
	}
	if p.HugePages2M() != 0 {
		t.Error("nothing should have been promoted")
	}
}

// TestReplayResumesExactly checkpoints a replay at several cuts, restores
// each into a fresh machine, and requires the finished run to equal the
// uncut one: RunResult, Metrics() and State(), less the TLB recency clocks
// (see stateSansTLB). The replayed machine is short of memory, so some
// promotions fail; a resumed replay that lost its cursor would fire the
// events it had already used again and fail more.
func TestReplayResumesExactly(t *testing.T) {
	wl, err := workloads.Build(workloads.Spec{Name: "BFS", Scale: 14})
	if err != nil {
		t.Fatal(err)
	}
	// build returns a fresh machine running wl under policy, and its job.
	build := func(cfg vmm.Config, policy vmm.Policy) (*vmm.Machine, *vmm.Job) {
		m := vmm.NewMachine(cfg, policy)
		p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
		st := wl.Stream()
		t.Cleanup(func() { workloads.CloseStream(st) })
		return m, &vmm.Job{Proc: p, Stream: st, Cores: []int{0}}
	}

	// Step one: the live PCC run records the candidate trace.
	live := vmm.DefaultConfig()
	live.PromotionInterval = 20_000
	engine := ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
	m, job := build(live, engine)
	engine.Bind(0, job.Proc)
	m.Run(job)
	tr := FromMachine(m)
	if len(tr.Events) != 5 {
		t.Fatalf("recorded %d events, want 5", len(tr.Events))
	}

	cfg := vmm.DefaultConfig()
	cfg.EnablePCC = false
	cfg.Phys = physmem.Config{TotalBytes: 64 << 20}
	cfg.FragFrac = 0.9
	cfg.PromotionInterval = 200
	want, job := build(cfg, NewReplayPolicy(tr))
	wantRes := want.Run(job)
	if wantRes.Promotions == 0 || want.PromotionFailures == 0 {
		t.Fatalf("the uncut replay must both promote (%d) and fail to (%d)", wantRes.Promotions, want.PromotionFailures)
	}

	for _, cut := range []uint64{50_000, 200_000, 400_000} {
		first, job := build(cfg, NewReplayPolicy(tr))
		if err := first.StartRun(job); err != nil {
			t.Fatal(err)
		}
		first.RunUntil(cut)
		data, err := snapshot.EncodeBytes(snapshot.Capture(first, "replay"))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		got, job := build(cfg, NewReplayPolicy(tr))
		if err := snapshot.Restore(got, snap); err != nil {
			t.Fatal(err)
		}
		if err := got.StartRun(job); err != nil {
			t.Fatal(err)
		}
		if res := got.FinishRun(); !reflect.DeepEqual(res, wantRes) {
			t.Errorf("cut %d: result diverged:\ngot  %+v\nwant %+v", cut, res, wantRes)
		}
		if got.PromotionFailures != want.PromotionFailures {
			t.Errorf("cut %d: %d promotion failures, uncut run %d", cut, got.PromotionFailures, want.PromotionFailures)
		}
		if !reflect.DeepEqual(got.Metrics(), want.Metrics()) {
			t.Errorf("cut %d: metrics diverged", cut)
		}
		if !reflect.DeepEqual(stateSansTLB(got), stateSansTLB(want)) {
			t.Errorf("cut %d: state diverged", cut)
		}
	}
}

// stateSansTLB is m.State() without the TLB hierarchies, whose recency
// clocks a restored run advances differently (vmm's state.go says why no
// output observes them).
func stateSansTLB(m *vmm.Machine) vmm.MachineState {
	st := m.State()
	for i := range st.Cores {
		st.Cores[i].TLB = tlb.HierarchyState{}
	}
	return st
}
