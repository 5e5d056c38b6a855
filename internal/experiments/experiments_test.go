package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pccsim/internal/obs"
	"pccsim/internal/trace"
	"pccsim/internal/workloads"
)

// tiny returns CI-sized options writing into a buffer. The shrunken TLBs
// (TLBDivisor) keep the footprint >> TLB-reach regime at miniature scale so
// the paper's orderings remain observable.
func tiny() (Options, *bytes.Buffer) {
	var buf bytes.Buffer
	o := QuickOptions(&buf)
	o.SynthAccesses = 150_000
	o.SynthSizeScale = 0.02
	o.Interval = 30_000
	o.PhysBytes = 256 << 20
	o.Budgets = []float64{0, 25, 100}
	return o, &buf
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must have a registered driver.
	for _, want := range []string{
		"tab1", "tab2", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8",
		"fig9a", "fig9b",
		"ablation-repl", "ablation-coldfilter", "ablation-decay", "ablation-interval",
	} {
		if _, ok := Registry[want]; !ok {
			t.Errorf("missing experiment %q", want)
		}
	}
	if len(Names()) != len(Registry) {
		t.Error("Names must list every entry")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	o, _ := tiny()
	if err := Run("nope", o); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTable1(t *testing.T) {
	o, buf := tiny()
	infos, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 14 {
		t.Errorf("rows = %d", len(infos))
	}
	out := buf.String()
	for _, app := range workloads.AppNames() {
		if !strings.Contains(out, app) {
			t.Errorf("table missing %s", app)
		}
	}
}

func TestTable2(t *testing.T) {
	o, buf := tiny()
	cfg, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PCC2M.Entries != 128 {
		t.Errorf("PCC entries = %d", cfg.PCC2M.Entries)
	}
	for _, want := range []string{"L1 D-TLB 4KB", "1024 entries", "2MB PCC"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig1ShapesHold(t *testing.T) {
	o, buf := tiny()
	rows, err := Fig1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: 2MB pages reduce TLB misses...
		if r.TLBMiss2M > r.TLBMiss4K+1e-9 {
			t.Errorf("%s: 2MB miss (%f) must not exceed 4KB miss (%f)",
				r.App, r.TLBMiss2M, r.TLBMiss4K)
		}
		// ...and never hurt performance for TLB-sensitive apps; allow
		// tiny regressions for the insensitive ones (fault-path noise).
		if r.Speedup2M < 0.95 {
			t.Errorf("%s: 2MB speedup = %f", r.App, r.Speedup2M)
		}
	}
	// The TLB-sensitive graph apps must gain meaningfully. (The full
	// BFS-vs-dedup ordering only holds at full scale where dedup's hot
	// hash fits the real TLB reach; at CI scale we assert the absolute
	// band instead.)
	for _, r := range rows {
		if r.App == "BFS" || r.App == "SSSP" || r.App == "PR" {
			if r.Speedup2M < 1.1 {
				t.Errorf("%s: 2MB speedup = %f, want > 1.1", r.App, r.Speedup2M)
			}
		}
	}
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("report must include the geomean")
	}
}

func TestFig2Characterization(t *testing.T) {
	o, buf := tiny()
	res, err := Fig2(o, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalPages() == 0 || res.TotalAccesses == 0 {
		t.Fatal("empty characterization")
	}
	// BFS on a power-law graph must exhibit all three classes.
	for _, c := range []trace.PageClass{trace.TLBFriendly, trace.HUB} {
		if res.Summary.Pages[c] == 0 {
			t.Errorf("class %v absent", c)
		}
	}
	if len(res.Sample) == 0 || len(res.Sample) > 120 {
		t.Errorf("sample size = %d", len(res.Sample))
	}
	if !strings.Contains(buf.String(), "HUB") {
		t.Error("report must name the HUB class")
	}
}

func TestFig5UtilityCurves(t *testing.T) {
	o, _ := tiny()
	apps, err := Fig5(o, []string{"BFS"})
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("apps = %d", len(apps))
	}
	b := apps[0]
	if len(b.PCC.Points) != len(o.Budgets) || len(b.HawkEye.Points) != len(o.Budgets) {
		t.Fatalf("points = %d/%d", len(b.PCC.Points), len(b.HawkEye.Points))
	}
	// Budget 0 is the baseline: speedup 1.0 by construction.
	if s := b.PCC.Points[0].Speedup; s < 0.999 || s > 1.001 {
		t.Errorf("budget-0 speedup = %f", s)
	}
	last := len(b.PCC.Points) - 1
	// More budget must help (monotone within tolerance).
	if b.PCC.Points[last].Speedup < b.PCC.Points[0].Speedup {
		t.Error("PCC curve must rise with budget")
	}
	// The ~100% PCC point must reduce PTW rate drastically vs baseline.
	if b.PCC.Points[last].PTWRate > 0.5*b.PCC.Points[0].PTWRate {
		t.Errorf("PTW at 100%% = %f vs baseline %f",
			b.PCC.Points[last].PTWRate, b.PCC.Points[0].PTWRate)
	}
	// PCC must beat HawkEye at the mid budget (the paper's key claim).
	if b.PCC.Points[1].Speedup < b.HawkEye.Points[1].Speedup-0.02 {
		t.Errorf("PCC (%f) must not lose to HawkEye (%f) at %v%%",
			b.PCC.Points[1].Speedup, b.HawkEye.Points[1].Speedup, o.Budgets[1])
	}
	// The ideal line bounds both curves (small tolerance).
	if b.PCC.Points[last].Speedup > b.Ideal.Speedup*1.05 {
		t.Errorf("PCC (%f) exceeds ideal (%f)", b.PCC.Points[last].Speedup, b.Ideal.Speedup)
	}
}

func TestFig6SizeSensitivity(t *testing.T) {
	o, _ := tiny()
	rows, err := Fig6(o, []int{4, 32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Speedup) != 3 {
			t.Fatalf("%s: %d points", r.App, len(r.Speedup))
		}
		// Bigger PCC must not hurt (within noise).
		if r.Speedup[2] < r.Speedup[0]-0.05 {
			t.Errorf("%s: 128-entry (%f) worse than 4-entry (%f)",
				r.App, r.Speedup[2], r.Speedup[0])
		}
		if r.Ideal < r.Speedup[2]*0.95 {
			t.Errorf("%s: ideal (%f) below 128-entry (%f)", r.App, r.Ideal, r.Speedup[2])
		}
	}
}

func TestFig7Fragmentation(t *testing.T) {
	o, _ := tiny()
	rows, err := Fig7(o, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's fig7 ordering: PCC beats Linux's greedy policy
		// under fragmentation.
		if r.PCC < r.LinuxTHP-0.02 {
			t.Errorf("%s: PCC (%f) must beat Linux (%f) at 90%% frag",
				r.App, r.PCC, r.LinuxTHP)
		}
		// Demotion is a refinement, not a regression.
		if r.PCCWithDemote < r.PCC*0.9 {
			t.Errorf("%s: demotion regressed badly: %f vs %f",
				r.App, r.PCCWithDemote, r.PCC)
		}
	}
}

func TestFig8Multithread(t *testing.T) {
	o, _ := tiny()
	o.Budgets = []float64{0, 100}
	apps, err := Fig8(o, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 3 {
		t.Fatalf("bundles = %d", len(apps))
	}
	for _, b := range apps {
		if b.Threads != 2 {
			t.Errorf("threads = %d", b.Threads)
		}
		if len(b.HighestFreq.Points) != 2 || len(b.RoundRobin.Points) != 2 {
			t.Fatalf("%s: point counts wrong", b.App)
		}
		if b.Ideal <= 0 {
			t.Errorf("%s: ideal = %f", b.App, b.Ideal)
		}
		// Full budget must help under both policies.
		if b.HighestFreq.Points[1].Speedup < 1.0 {
			t.Errorf("%s: HF full-budget speedup = %f", b.App, b.HighestFreq.Points[1].Speedup)
		}
	}
}

func TestFig9Multiprocess(t *testing.T) {
	o, _ := tiny()
	o.Budgets = []float64{0, 100}
	series, err := Fig9(o, "PR", "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	var prHF *Fig9Series
	for i := range series {
		if series[i].App == "PR" && series[i].Policy == "highest-freq" {
			prHF = &series[i]
		}
	}
	if prHF == nil {
		t.Fatal("PR highest-freq series missing")
	}
	if len(prHF.Points) != 2 {
		t.Fatalf("points = %d", len(prHF.Points))
	}
	// TLB-sensitive PR must benefit from unlimited budget in the co-run.
	if prHF.Points[1].Speedup <= 1.0 {
		t.Errorf("PR co-run speedup = %f", prHF.Points[1].Speedup)
	}
	if prHF.Points[1].HugePages == 0 {
		t.Error("PR must receive huge pages")
	}
}

func TestAblations(t *testing.T) {
	o, _ := tiny()
	rows, err := AblationReplacement(o)
	if err != nil || len(rows) != 6 { // 3 policies x {128, 8} entries
		t.Fatalf("repl: %v, %d rows", err, len(rows))
	}
	rows, err = AblationColdFilter(o)
	if err != nil || len(rows) != 6 { // on/off x {LFU@128, LFU@8, LRU@8}
		t.Fatalf("coldfilter: %v, %d rows", err, len(rows))
	}
	rows, err = AblationDecay(o)
	if err != nil || len(rows) != 4 { // on/off x {128, 8} entries
		t.Fatalf("decay: %v, %d rows", err, len(rows))
	}
	rows, err = AblationInterval(o, []uint64{15_000, 60_000})
	if err != nil || len(rows) != 2 {
		t.Fatalf("interval: %v, %d rows", err, len(rows))
	}
	for _, r := range rows {
		for app, s := range r.Speedup {
			if s <= 0 {
				t.Errorf("%s/%s: speedup %f", r.Config, app, s)
			}
		}
	}
}

func TestOptionsVariants(t *testing.T) {
	var buf bytes.Buffer
	d := DefaultOptions(&buf)
	q := QuickOptions(&buf)
	f := FullOptions(&buf)
	if q.Scale >= d.Scale {
		t.Error("quick must be smaller than default")
	}
	if len(f.Datasets) != 3 {
		t.Errorf("full datasets = %d", len(f.Datasets))
	}
	if len(d.Budgets) != 9 {
		t.Errorf("default budgets = %d (paper has 9 points)", len(d.Budgets))
	}
}

func TestVariantSpecsExpansion(t *testing.T) {
	o, _ := tiny()
	o.BothSortings = true
	specs := o.variantSpecs("BFS")
	if len(specs) != 2*len(o.Datasets) {
		t.Errorf("graph variants = %d", len(specs))
	}
	specs = o.variantSpecs("mcf")
	if len(specs) != 1 {
		t.Errorf("synth variants = %d", len(specs))
	}
}

// TestBaselineCacheReuse: a baseline that several cells compare against is
// simulated once. One app's {baseline, ideal, PCC} cells need exactly one
// baseline, one ideal and one PCC simulation per variant — the baseline cell
// aliases the shared baseline run instead of simulating it again.
func TestBaselineCacheReuse(t *testing.T) {
	o, _ := tiny()
	reg := obs.NewRegistry()
	o.Obs = reg
	res, err := o.runCells([]cell{
		{"BFS", runCfg{kind: polBaseline}},
		{"BFS", runCfg{kind: polIdeal}},
		{"BFS", runCfg{kind: polPCC, budgetPct: 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := res[0].Speedup; s != 1 {
		t.Errorf("baseline cell speedup = %f, want exactly 1 (aliased run)", s)
	}
	variants := len(o.variantSpecs("BFS"))
	if got, want := reg.Snapshot()["pool.tasks.total"], float64(3*variants); got != want {
		t.Errorf("simulations = %g, want %g (3 per variant, baseline shared)", got, want)
	}
}

func TestMultithreadActuallyParallel(t *testing.T) {
	// Regression: a cell must partition the workload across the machine's
	// cores (a 2-thread baseline finishes in less wall-clock than a
	// 1-thread one). An earlier bug left every access on core 0.
	o, _ := tiny()
	res, err := o.runCells([]cell{
		{"BFS", runCfg{kind: polBaseline, threads: 1}},
		{"BFS", runCfg{kind: polBaseline, threads: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	one, two := res[0], res[1]
	if two.Cycles >= one.Cycles*0.95 {
		t.Errorf("2-thread run (%.3g cycles) must beat 1-thread (%.3g)", two.Cycles, one.Cycles)
	}
}

func TestTLBDivisorShrinksHardware(t *testing.T) {
	o, _ := tiny()
	o.TLBDivisor = 8
	cfg := o.machineConfig(runCfg{kind: polBaseline})
	if cfg.TLB.L2.Entries != 1024/8 {
		t.Errorf("L2 entries = %d, want %d", cfg.TLB.L2.Entries, 1024/8)
	}
	// Never shrink below associativity.
	if cfg.TLB.L1D1G.Entries < cfg.TLB.L1D1G.Ways {
		t.Errorf("1G TLB shrunk below its ways: %+v", cfg.TLB.L1D1G)
	}
	o.TLBDivisor = 1
	cfg = o.machineConfig(runCfg{kind: polBaseline})
	if cfg.TLB.L2.Entries != 1024 {
		t.Error("divisor 1 must keep Table 2 hardware")
	}
}

func TestMachineConfigPolicyWiring(t *testing.T) {
	o, _ := tiny()
	cfg := o.machineConfig(runCfg{kind: polPCC, victim: true})
	if !cfg.UseVictimTracker {
		t.Error("victim flag must reach the machine config")
	}
	cfg = o.machineConfig(runCfg{kind: polPCC, pccEntries: 16, noDecay: true})
	if cfg.PCC2M.Entries != 16 || !cfg.PCC2M.DisableDecay {
		t.Errorf("PCC knobs not wired: %+v", cfg.PCC2M)
	}
	cfg = o.machineConfig(runCfg{kind: polHawkEye})
	if cfg.EnablePCC {
		t.Error("non-PCC policies must not enable PCC hardware")
	}
}

func TestPlotEmission(t *testing.T) {
	o, _ := tiny()
	o.Budgets = []float64{0, 100}
	o.PlotDir = t.TempDir()
	if _, err := Fig5(o, []string{"BFS"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig2(o, 50); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig5_BFS.svg", "fig2_scatter.svg"} {
		if _, err := os.Stat(filepath.Join(o.PlotDir, want)); err != nil {
			t.Errorf("missing plot %s: %v", want, err)
		}
	}
}
