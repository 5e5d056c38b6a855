package ospolicy

import (
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// refHawkEye is HawkEye with the sampler it had before the per-tick region
// cache: the reference TestHawkEyeSamplerMatchesReference holds the fast
// sampler to.
type refHawkEye struct{ *HawkEye }

// Tick is HawkEye.Tick with refSample in place of sample.
func (r refHawkEye) Tick(m *vmm.Machine) {
	h := r.HawkEye
	h.ticks++
	h.refSample(m)
	h.fold()
	m.Notef("hawkeye.scan", "regions_tracked=%d", len(h.regions))
	h.promote(m)
}

// refSample draws each sample the slow, obvious way: a hardware remainder,
// a scan that subtracts extent lengths, a ledger lookup and a fresh
// PTE-bit handle per sample.
func (h *HawkEye) refSample(m *vmm.Machine) {
	type extent struct {
		p *vmm.Process
		r mem.Range
	}
	var extents []extent
	var total uint64
	for _, p := range m.Procs() {
		for _, r := range p.Ranges() {
			extents = append(extents, extent{p: p, r: r})
			total += r.Len()
		}
	}
	if total == 0 {
		return
	}
	for i := 0; i < h.cfg.SamplePages; i++ {
		off := h.rng.Uint64() % total
		var ext extent
		rem := off
		for _, e := range extents {
			if rem < e.r.Len() {
				ext = e
				break
			}
			rem -= e.r.Len()
		}
		addr := mem.PageBase(ext.r.Start+mem.VirtAddr(rem), mem.Page4K)
		base := mem.PageBase(addr, mem.Page2M)
		k := regionKey{pid: ext.p.ID, base: base}
		reg := h.regions[k]
		if reg == nil {
			reg = &hawkRegion{proc: ext.p, base: base}
			h.regions[k] = reg
		}
		reg.samples++
		if ext.p.PTEBits(addr).TestAndClear(addr) {
			reg.hits++
		}
	}
}

// drawVMAs draws one address space: two VMAs that meet inside a 2MB region
// (both reach it, so it must stay one ledger entry), then a gap and a third
// VMA with an unaligned start, each a few regions long.
func drawVMAs(rng *rand.Rand, at mem.VirtAddr) []mem.Range {
	page := func(n int) mem.VirtAddr { return mem.VirtAddr(n) << 12 }
	a := mem.Range{Start: at, End: at + 2<<21 + page(1+rng.Intn(511))}
	b := mem.Range{Start: a.End, End: a.End + 3<<21 + page(rng.Intn(512))}
	cStart := mem.PageBase(b.End, mem.Page2M) + 2<<21 + page(rng.Intn(512))
	c := mem.Range{Start: cStart, End: cStart + 4<<21}
	return []mem.Range{a, b, c}
}

// drawStream touches a random hot subset of each VMA's first regions,
// leaving the rest of the address space unmapped.
func drawStream(rng *rand.Rand, ranges []mem.Range, n int) []trace.Access {
	var pages []mem.VirtAddr
	for _, r := range ranges {
		reach := min(r.Len(), uint64(rng.Intn(4)+1)<<21)
		for a := r.Start; a < r.Start+mem.VirtAddr(reach); a += mem.VirtAddr(mem.Page4K) {
			if rng.Intn(3) > 0 {
				pages = append(pages, a)
			}
		}
	}
	acc := make([]trace.Access, n)
	for i := range acc {
		acc[i] = trace.Access{Addr: pages[rng.Intn(len(pages))]}
	}
	return acc
}

// TestHawkEyeSamplerMatchesReference drives the fast sampler and the
// reference over the same random machines: three processes whose address
// spaces overlap each other and hold two VMAs sharing a 2MB region, hot
// subsets touched and the rest unmapped, scarce fragmented memory, a region
// promoted by hand, an exec between runs and a RestorePolicyState mid-run.
// The full machine states — HawkEye's ledger and RNG steps, every address
// space's mappings and accessed bits, the promotion log and the event log —
// must stay equal.
func TestHawkEyeSamplerMatchesReference(t *testing.T) {
	promoted, sharedTracked := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig(false)
		cfg.Phys = physmem.Config{TotalBytes: 48 << 21, MovableFillRatio: 0.5}
		cfg.FragFrac = 0.6
		cfg.PromotionInterval = 3_000
		cfg.EventLogSize = 1 << 12
		hcfg := DefaultHawkEyeConfig()
		hcfg.Seed = seed
		fast, ref := NewHawkEye(hcfg), refHawkEye{NewHawkEye(hcfg)}
		mf, mr := vmm.NewMachine(cfg, fast), vmm.NewMachine(cfg, ref)
		var pf, pr []*vmm.Process
		for i := 0; i < 3; i++ {
			ranges := drawVMAs(rng, mem.VirtAddr(1+i%2)<<30+mem.VirtAddr(rng.Intn(4))<<12)
			pf = append(pf, mf.AddProcess("p", ranges, 10))
			pr = append(pr, mr.AddProcess("p", ranges, 10))
		}
		run := func(n int) {
			var jf, jr []*vmm.Job
			for i := range pf {
				acc := drawStream(rng, pf[i].Ranges(), n)
				jf = append(jf, &vmm.Job{Proc: pf[i], Stream: trace.Slice(acc)})
				jr = append(jr, &vmm.Job{Proc: pr[i], Stream: trace.Slice(acc)})
			}
			mf.Run(jf...)
			mr.Run(jr...)
		}
		check := func(stage string) {
			t.Helper()
			if !reflect.DeepEqual(mf.State(), mr.State()) {
				t.Fatalf("seed %d, %s: machine states differ (HawkEye %+v vs %+v)",
					seed, stage, fast.PolicyState(), ref.PolicyState())
			}
		}
		run(20_000)
		check("first run")
		// A promoted region has no PTEs for the samples landing in it.
		base := mem.PageBase(pf[1].Ranges()[1].Start, mem.Page2M) + 1<<21
		errF, errR := mf.Promote2M(pf[1], base), mr.Promote2M(pr[1], base)
		if (errF == nil) != (errR == nil) {
			t.Fatalf("seed %d: hand promotion diverged: %v vs %v", seed, errF, errR)
		}
		run(15_000)
		check("second run")
		if err := fast.RestorePolicyState(mf, fast.PolicyState()); err != nil {
			t.Fatal(err)
		}
		if err := ref.RestorePolicyState(mr, ref.PolicyState()); err != nil {
			t.Fatal(err)
		}
		if err := mf.ExecProcess(pf[0]); err != nil {
			t.Fatal(err)
		}
		if err := mr.ExecProcess(pr[0]); err != nil {
			t.Fatal(err)
		}
		run(20_000)
		check("after restore and exec")
		promoted += int(fast.promoted)
		for _, p := range pf {
			shared := mem.PageBase(p.Ranges()[1].Start, mem.Page2M)
			if fast.regions[regionKey{pid: p.ID, base: shared}] != nil {
				sharedTracked++
			}
		}
	}
	if promoted == 0 || sharedTracked == 0 {
		t.Fatalf("the comparison must cover promotions (%d) and regions two VMAs share (%d)", promoted, sharedTracked)
	}
}

// TestHawkEyeTickAllocsIndependentOfSamplePages: a tick's allocations do
// not grow with the samples it draws; the sampler's scratch is reused.
func TestHawkEyeTickAllocsIndependentOfSamplePages(t *testing.T) {
	var allocs []float64
	for _, pages := range []int{256, 16384} {
		cfg := DefaultHawkEyeConfig()
		cfg.SamplePages = pages
		cfg.MinBucket = cfg.Buckets + 1 // never promote: every tick alike
		h := NewHawkEye(cfg)
		m := vmm.NewMachine(testConfig(false), nil)
		p := m.AddProcess("t", append(testVMA(4), drawVMAs(rand.New(rand.NewSource(1)), 1<<30)...), 10)
		m.Run(&vmm.Job{Proc: p, Stream: hotStream(p.Ranges()[0], 20_000)})
		h.Tick(m) // sizes the scratch and creates the ledger entries
		allocs = append(allocs, testing.AllocsPerRun(20, func() { h.Tick(m) }))
	}
	if allocs[1] > allocs[0] {
		t.Errorf("allocs per tick grew with SamplePages: %v at 256 and 16384 samples", allocs)
	}
}

// BenchmarkHawkEyeTick times one HawkEye tick on a churn-pressure-shaped
// machine: PR on kron-14 on a 32 MiB pool at 90% boot fragmentation, with
// churn and watermark demotion, warmed up for 2M accesses under HawkEye
// ticking every 10^4. Every iteration first restores the warmed-up machine
// state, accessed bits included, so each tick samples the same state; the
// ticking copy never promotes (MinBucket above every bucket), so a tick
// changes nothing in the machine but the accessed bits it clears. The state
// is restored into a twin without a policy, and without the pressure RNG's
// position: replaying those RNG streams would dominate each restore, and a
// tick draws from neither.
func BenchmarkHawkEyeTick(b *testing.B) {
	wl, err := workloads.Build(workloads.Spec{Name: "PR", Dataset: workloads.DatasetKron, Scale: 14})
	if err != nil {
		b.Fatal(err)
	}
	const physBytes = 32 << 20
	const frames = physBytes / 4096
	cfg := vmm.DefaultConfig()
	cfg.Seed = 1
	cfg.PromotionInterval = 10_000
	cfg.Phys = physmem.Config{TotalBytes: physBytes, MovableFillRatio: 0.5}
	for _, c := range []*tlb.Config{&cfg.TLB.L1D4K, &cfg.TLB.L1D2M, &cfg.TLB.L1D1G, &cfg.TLB.L2} {
		c.Entries = max(c.Entries/4, c.Ways)
	}
	cfg.FragFrac = 0.9
	cfg.Pressure = vmm.PressureConfig{
		Enable:                true,
		ChurnAllocFrames:      frames / 16,
		ChurnFreeFrames:       frames / 32,
		ChurnPinnedFrac:       0.05,
		DemoteWatermarkBlocks: frames / 512 / 4,
		MaxDemotionsPerTick:   2,
	}
	warm := NewHawkEye(DefaultHawkEyeConfig())
	m := vmm.NewMachine(cfg, warm)
	p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
	stream := wl.Stream()
	defer workloads.CloseStream(stream)
	if err := m.StartRun(&vmm.Job{Proc: p, Stream: stream}); err != nil {
		b.Fatal(err)
	}
	m.RunUntil(2_000_000)
	warmed := m.State()
	warmed.PolicyName, warmed.PolicyState, warmed.PressureRNGSteps = "", nil, 0
	twin := vmm.NewMachine(cfg, nil)
	twin.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
	if err := twin.RestoreState(warmed); err != nil {
		b.Fatal(err)
	}
	hcfg := DefaultHawkEyeConfig()
	hcfg.MinBucket = hcfg.Buckets + 1
	h := NewHawkEye(hcfg)
	if err := h.RestorePolicyState(twin, warm.PolicyState()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := twin.RestoreState(warmed); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		h.Tick(twin)
	}
}
