package main

import (
	"fmt"
	"time"

	"pccsim/internal/ospolicy"
	"pccsim/internal/physmem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// setupStats is what a workload's set-up did, timed per layer.
type setupStats struct {
	build, record  float64 // workloads.Build and trace.RecordBlocks seconds
	recordBytes    int64
	recordAccesses uint64
}

// variant is one workload input prepared in set-up: the built workload and,
// when the suite replays, its recorded stream.
type variant struct {
	spec workloads.Spec
	wl   workloads.Workload
	rec  *trace.BlockRecording
}

// stream returns a fresh access stream for one cell: a zero-copy replay of
// the recording, or the workload's live generator.
func (v variant) stream() trace.Stream {
	if v.rec != nil {
		return v.rec.Replay()
	}
	return v.wl.Stream()
}

// prepare builds each spec's workload and, when record is set, records its
// stream once, timing both layers.
func prepare(specs []workloads.Spec, record bool, st *setupStats, spans *spanLog) ([]variant, error) {
	out := make([]variant, len(specs))
	for i, s := range specs {
		t0 := time.Now()
		wl, err := workloads.Build(s)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", s.Name, err)
		}
		d := time.Since(t0)
		st.build += d.Seconds()
		spans.add(0, "build", s.Name, t0, d)
		out[i] = variant{spec: s, wl: wl}
		if !record {
			continue
		}
		t0 = time.Now()
		live := wl.Stream()
		rec := trace.RecordBlocks(live, 0)
		workloads.CloseStream(live)
		d = time.Since(t0)
		st.record += d.Seconds()
		st.recordBytes += int64(rec.Size())
		st.recordAccesses += rec.Accesses()
		spans.add(0, "record", s.Name, t0, d)
		out[i].rec = rec
	}
	return out, nil
}

// machineConfig is the shared single-process cell configuration, shaped like
// the experiment drivers' (TLBs shrunk by tlbDiv so miniature footprints
// stay far beyond TLB reach).
func machineConfig(seed int64, cores int, physBytes uint64, interval uint64, tlbDiv int) vmm.Config {
	cfg := vmm.DefaultConfig()
	cfg.Cores = cores
	cfg.Seed = seed
	cfg.PromotionInterval = interval
	cfg.Phys = physmem.Config{TotalBytes: physBytes, MovableFillRatio: 0.5}
	if tlbDiv > 1 {
		for _, c := range []*tlb.Config{&cfg.TLB.L1D4K, &cfg.TLB.L1D2M, &cfg.TLB.L1D1G, &cfg.TLB.L2} {
			c.Entries = max(c.Entries/tlbDiv, c.Ways)
		}
	}
	return cfg
}

// newPolicy constructs the named OS policy; engine is non-nil for PCC,
// whose cores must be bound to their process.
func newPolicy(kind string) (p vmm.Policy, engine *ospolicy.PCCEngine) {
	switch kind {
	case "4KB":
		return ospolicy.Baseline{}, nil
	case "ideal":
		return ospolicy.AllHuge{}, nil
	case "PCC":
		engine = ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
		return engine, engine
	case "HawkEye":
		return ospolicy.NewHawkEye(ospolicy.DefaultHawkEyeConfig()), nil
	case "Linux":
		return ospolicy.NewLinuxTHP(ospolicy.DefaultLinuxTHPConfig()), nil
	}
	panic("perfbench: unknown policy " + kind)
}

// singleCell is one single-process, single-core simulation of v.
func singleCell(name string, v variant, cfg vmm.Config, kind string, budgetPct float64) cellSpec {
	return cellSpec{name: name, build: func(ct *cellTrace) (*vmm.Machine, []*vmm.Job) {
		policy, engine := newPolicy(kind)
		cfg := cfg
		cfg.EnablePCC = kind == "PCC"
		m := vmm.NewMachine(cfg, ct.policy(policy))
		p := m.AddProcess(v.wl.Name(), v.wl.Ranges(), v.wl.BaseCPA())
		if budgetPct > 0 && budgetPct < 100 {
			p.MaxHugeBytes = uint64(budgetPct / 100 * float64(v.wl.Footprint()))
		}
		if engine != nil {
			engine.Bind(0, p)
		}
		return m, []*vmm.Job{{Proc: p, Stream: ct.stream(v.stream()), Cores: []int{0}}}
	}}
}

func variantName(s workloads.Spec) string {
	if s.Dataset == "" {
		return s.Name
	}
	order := "unsorted"
	if s.Sorted {
		order = "sorted"
	}
	return fmt.Sprintf("%s-%s%d-%s", s.Name, s.Dataset, s.Scale, order)
}

// utilitySweep is Fig 5's grid shape: graph kernels on kron in both
// sortings plus a synthetic app, each under a 4KB baseline, PCC and HawkEye
// at every budget, and ideal and Linux THP on fragmented memory. Streams are
// recorded once and replayed zero-copy; cells are single-core machines on a
// two-worker pool with a long promotion interval.
func utilitySweep(seed int64, tiny bool, st *setupStats, spans *spanLog) (*cellSuite, error) {
	scale, synthScale, synthAcc := 15, 0.12, uint64(1_500_000)
	// Budgets below ~4% of these footprints round under one 2MB page.
	budgets, frags := []float64{4, 16, 64, 100}, []float64{0.5, 0.9}
	if tiny {
		scale, synthScale, synthAcc = 10, 0.02, 50_000
		budgets, frags = []float64{25, 100}, []float64{0.9}
	}
	var specs []workloads.Spec
	for _, app := range workloads.GraphAppNames() {
		specs = append(specs, workloads.SortedSpecs(workloads.Spec{Name: app, Dataset: workloads.DatasetKron, Scale: scale})...)
	}
	specs = append(specs, workloads.Spec{Name: "canneal", SizeScale: synthScale, Accesses: synthAcc})
	vs, err := prepare(specs, true, st, spans)
	if err != nil {
		return nil, err
	}
	s := &cellSuite{workers: 2}
	for _, v := range vs {
		cfg := machineConfig(seed, 1, 1<<30, 1_000_000, 4)
		vn := variantName(v.spec)
		s.cells = append(s.cells, singleCell(vn+"/4KB", v, cfg, "4KB", 0))
		for _, kind := range []string{"PCC", "HawkEye"} {
			for _, b := range budgets {
				s.cells = append(s.cells, singleCell(fmt.Sprintf("%s/%s@%g%%", vn, kind, b), v, cfg, kind, b))
			}
		}
		for _, kind := range []string{"ideal", "Linux"} {
			for _, f := range frags {
				fc := cfg
				fc.FragFrac = f
				s.cells = append(s.cells, singleCell(fmt.Sprintf("%s/%s/frag%g", vn, kind, f), v, fc, kind, 0))
			}
		}
	}
	return s, nil
}

// churnPressure is FigFrag's regime pushed toward the tick layer: PR on a
// scarce pool at 90% boot fragmentation with churn, a kcompactd budget and
// watermark demotion, ticking every 10^4 accesses, under HawkEye, Linux THP
// and PCC. Streams are generated live in every cell.
func churnPressure(seed int64, tiny bool, st *setupStats, spans *spanLog) (*cellSuite, error) {
	scale := 14
	if tiny {
		scale = 10
	}
	specs := workloads.SortedSpecs(workloads.Spec{Name: "PR", Dataset: workloads.DatasetKron, Scale: scale})
	vs, err := prepare(specs, false, st, spans)
	if err != nil {
		return nil, err
	}
	const physBytes = 32 << 20
	const frames = physBytes / 4096
	s := &cellSuite{workers: 1}
	for _, v := range vs {
		vn := variantName(v.spec)
		for _, churn := range []int{frames / 16, frames / 4} {
			for _, compact := range []int{0, frames / 16} {
				cfg := machineConfig(seed, 1, physBytes, 10_000, 4)
				cfg.FragFrac = 0.9
				cfg.Pressure = vmm.PressureConfig{
					Enable:                true,
					ChurnAllocFrames:      churn,
					ChurnFreeFrames:       churn / 2,
					ChurnPinnedFrac:       0.05,
					CompactBudgetFrames:   compact,
					DemoteWatermarkBlocks: frames / 512 / 4,
					MaxDemotionsPerTick:   2,
				}
				for _, kind := range []string{"HawkEye", "Linux", "PCC"} {
					name := fmt.Sprintf("%s/%s/churn%d/compact%d", vn, kind, churn, compact)
					s.cells = append(s.cells, singleCell(name, v, cfg, kind, 0))
				}
			}
		}
	}
	return s, nil
}

// tenantApps are the co-located tenants, one per simulated core.
var tenantApps = []string{"mcf", "canneal", "omnetpp", "xalancbmk"}

// tenantFleet is FigTenant's shape: four tenants on four cores as one
// multi-job machine with HugeShare quotas of a scarce machine-wide budget,
// with and without lifecycle churn. NUMA interleave and local-first cells
// run the generic kernel; the others run sharded (two shard goroutines plus
// the block prefetchers over the recorded streams).
func tenantFleet(seed int64, tiny bool, st *setupStats, spans *spanLog) (*cellSuite, error) {
	sizeScale, accesses := 0.1, uint64(300_000)
	if tiny {
		sizeScale, accesses = 0.02, 30_000
	}
	specs := make([]workloads.Spec, len(tenantApps))
	for i, app := range tenantApps {
		specs[i] = workloads.Spec{Name: app, SizeScale: sizeScale, Accesses: accesses}
	}
	vs, err := prepare(specs, true, st, spans)
	if err != nil {
		return nil, err
	}
	var combined uint64
	for _, v := range vs {
		combined += v.wl.Footprint()
	}
	s := &cellSuite{workers: 1}
	for _, numa := range []string{"none", "interleave", "local-first"} {
		for _, skew := range []string{"even", "skewed"} {
			for _, churn := range []bool{false, true} {
				name := fmt.Sprintf("t%d/%s/churn-%v/numa-%s", len(vs), skew, churn, numa)
				s.cells = append(s.cells, tenantCell(name, vs, seed, combined, skew, churn, numa))
			}
		}
	}
	return s, nil
}

// tenantCell builds one multi-tenant machine the way FigTenant does.
func tenantCell(name string, vs []variant, seed int64, combined uint64, skew string, churn bool, numa string) cellSpec {
	n := len(vs)
	shares := make([]float64, n)
	for i := range shares {
		shares[i] = 1 / float64(n)
		if skew == "skewed" {
			shares[i] = 0.3 / float64(n-1)
		}
	}
	if skew == "skewed" {
		shares[0] = 0.7
	}
	// A quarter of the combined footprint, floored so the smallest share
	// still holds two 2MB pages (AddTenant rejects shares rounding to zero).
	total := combined / 4
	if minShare := min(shares[0], shares[n-1]); float64(total)*minShare < 4<<20 {
		total = uint64(4<<20/minShare) + 2<<20
	}
	return cellSpec{name: name, build: func(ct *cellTrace) (*vmm.Machine, []*vmm.Job) {
		cfg := machineConfig(seed, n, 1<<30, 50_000, 4)
		cfg.EnablePCC = true
		cfg.MaxHugeBytesTotal = total
		if churn {
			lc := vmm.DefaultLifecycleConfig()
			lc.MaxHugeBytes = 4 << 20
			lc.HugeRegions = 2
			cfg.Lifecycle = lc
		}
		switch numa {
		case "none":
			cfg.Shards = 2
		case "interleave":
			cfg.NUMA = vmm.DefaultNUMAConfig()
			cfg.NUMA.Policy = vmm.NUMAInterleave
		case "local-first":
			cfg.NUMA = vmm.DefaultNUMAConfig()
			cfg.NUMA.Policy = vmm.NUMALocalFirst
			cfg.NUMA.LocalShare = 0.5
		}
		engine := ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
		m := vmm.NewMachine(cfg, ct.policy(engine))
		jobs := make([]*vmm.Job, n)
		for i, v := range vs {
			tc := vmm.TenantConfig{
				Name:      fmt.Sprintf("tenant%d-%s", i, v.wl.Name()),
				Ranges:    v.wl.Ranges(),
				BaseCPA:   v.wl.BaseCPA(),
				HugeShare: shares[i],
			}
			if numa != "none" {
				tc.HomeNode = i % cfg.NUMA.Nodes
				if numa == "local-first" && i == 0 {
					tc.MemPolicy = vmm.VMAMemPolicy{Mode: vmm.MemPolicyBind, Nodes: []int{tc.HomeNode}}
				} else if numa == "local-first" && i == 1 {
					tc.MemPolicy = vmm.VMAMemPolicy{Mode: vmm.MemPolicyPreferred, Nodes: []int{(tc.HomeNode + 1) % cfg.NUMA.Nodes}}
				}
			}
			p, err := m.AddTenant(tc)
			if err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
			engine.Bind(i, p)
			jobs[i] = &vmm.Job{Proc: p, Stream: ct.stream(v.stream()), Cores: []int{i}}
		}
		return m, jobs
	}}
}
