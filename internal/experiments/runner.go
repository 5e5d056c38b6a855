// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablation studies DESIGN.md calls out. Each
// driver builds the required machines and workloads, runs the simulations,
// and renders the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"

	"pccsim/internal/metrics"
	"pccsim/internal/obs"
	"pccsim/internal/ospolicy"
	"pccsim/internal/pcc"
	"pccsim/internal/physmem"
	"pccsim/internal/plot"
	"pccsim/internal/snapshot"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// Options scales and scopes an experiment run. The zero value is unusable;
// start from DefaultOptions (full fidelity) or QuickOptions (CI-sized).
type Options struct {
	// Out receives the rendered report.
	Out io.Writer
	// Scale is the graph scale (2^Scale vertices).
	Scale int
	// SynthAccesses is the synthetic apps' stream length.
	SynthAccesses uint64
	// SynthSizeScale scales the synthetic apps' footprints.
	SynthSizeScale float64
	// Datasets lists the graph inputs to evaluate (geomean across them).
	Datasets []workloads.GraphDataset
	// BothSortings evaluates sorted (DBG) and unsorted variants and
	// geomeans them, as the paper does.
	BothSortings bool
	// Interval is the promotion tick in accesses.
	Interval uint64
	// PhysBytes sizes physical memory.
	PhysBytes uint64
	// Seed drives fragmentation placement.
	Seed int64
	// Budgets are the utility-curve points in percent of footprint
	// (0 = baseline, 100 = promote-everything-the-PCC-sees).
	Budgets []float64
	// TLBDivisor shrinks every TLB by this factor (1 = the paper's Table
	// 2 hardware). Quick/CI configurations use it to preserve the
	// footprint >> TLB-reach regime at miniature workload scales; full
	// runs must leave it at 1.
	TLBDivisor int
	// PlotDir, when non-empty, makes figure drivers additionally write
	// SVG renderings of their curves/bars into this directory.
	PlotDir string
	// Workers bounds the run pool's concurrency when grid drivers fan
	// their simulations out (0 = GOMAXPROCS). Every experiment's output is
	// byte-identical regardless of this setting; it only changes wall
	// clock.
	Workers int
	// MachineShards is the vmm.Config.Shards value every simulated machine
	// runs with: the goroutine budget one Run may use to execute
	// independent job groups concurrently (0/1 = serial). Results are
	// byte-identical at any value. Because each run may then occupy up to
	// MachineShards OS threads, the grid pool divides its worker budget by
	// this value so total concurrency stays near the Workers bound.
	MachineShards int
	// Audit arms the invariant auditor on every simulated machine: cross
	// consistency of TLBs, page tables, PCC contents, physical-memory
	// accounting, and policy ledgers is checked after every policy tick
	// and at end of run, panicking on the first violation.
	Audit bool
	// Obs, when non-nil, accumulates every machine's end-of-run metrics
	// snapshot (plus run-pool progress gauges). Counters merge by
	// addition, so the totals are byte-identical at any worker count.
	Obs *obs.Registry
	// EventSink, when non-nil, enables per-machine event tracing and
	// drains each run's trace into the sink, tagged with the run name.
	EventSink *obs.Sink
	// TraceCache controls the process-wide trace record/replay cache that
	// lets a grid generate each workload access stream once and replay it
	// across cells: 0 uses the DefaultTraceCacheBytes budget, a positive
	// value is a byte cap on the cache's encoded recordings, and a negative
	// value disables caching (every run generates its stream live). Replays
	// are byte-identical to live emission, so this never changes results.
	TraceCache int64
	// SnapshotCut, when non-nil, routes every simulation through a full
	// checkpoint/restore cycle: the run pauses at the access-clock cut the
	// hook returns for the run's name (0 = run uninterrupted), the
	// machine's complete state is serialized through the snapshot container,
	// decoded back, restored into a second, freshly built machine, and the
	// run finishes there. Results are pinned byte-identical to the
	// uninterrupted run at every cut point — the resume-equivalence suite
	// sweeps seeded random cuts across the goldens matrix to prove it. A cut
	// past the end of the stream checkpoints a completed machine, which is
	// valid and equally exercised.
	SnapshotCut func(name string) uint64
	// Tenants restricts the figtenant sweep to one tenant count (0 = the
	// default {2, 4} grid; the CLI's -tenants flag).
	Tenants int
	// ChurnProcs overrides the churn process cap in figtenant's
	// churn-enabled cells (0 = vmm.DefaultLifecycleConfig's cap; -churn-procs).
	ChurnProcs int
	// QuotaSkew restricts the figtenant quota split to "even" or "skewed"
	// ("" = sweep both; -quota-skew).
	QuotaSkew string
}

// pool returns the run pool the options select. Its worker budget is the
// Workers bound divided by the per-machine shard budget (rounded up), so
// grid-level and machine-level parallelism compose without oversubscribing
// the host: Workers bounds the total goroutines simulating, however they
// are split between concurrent runs and shards within each run.
func (o Options) pool() *RunPool {
	return &RunPool{workers: gridWorkers(poolWorkers(o.Workers), o.MachineShards), Obs: o.Obs}
}

// gridWorkers splits a total worker budget between grid concurrency and
// per-machine sharding: ceil(total/shards), floored at 1.
func gridWorkers(total, shards int) int {
	if shards <= 1 {
		return total
	}
	w := (total + shards - 1) / shards
	if w < 1 {
		w = 1
	}
	return w
}

// savePlot writes an SVG next to the textual report, logging rather than
// failing the experiment on I/O errors.
func (o Options) savePlot(name, svg string) {
	if o.PlotDir == "" {
		return
	}
	if path, err := plot.Save(o.PlotDir, name, svg); err != nil {
		o.printf("(plot %s failed: %v)\n", name, err)
	} else {
		o.printf("(wrote %s)\n", path)
	}
}

// DefaultOptions returns the full-fidelity configuration used for the
// reported results (tens of minutes for the complete suite).
func DefaultOptions(out io.Writer) Options {
	return Options{
		Out:            out,
		Scale:          workloads.DefaultScale,
		SynthAccesses:  12_000_000,
		SynthSizeScale: 1.0,
		Datasets:       []workloads.GraphDataset{workloads.DatasetKron},
		BothSortings:   true,
		Interval:       2_000_000,
		PhysBytes:      2 << 30,
		Seed:           1,
		Budgets:        []float64{0, 1, 2, 4, 8, 16, 32, 64, 100},
		TLBDivisor:     1,
	}
}

// QuickOptions returns a CI-sized configuration (seconds per experiment)
// exercising every code path at reduced scale.
func QuickOptions(out io.Writer) Options {
	o := DefaultOptions(out)
	o.Scale = 14
	o.SynthAccesses = 400_000
	o.SynthSizeScale = 0.05
	o.Interval = 100_000
	o.PhysBytes = 512 << 20
	o.Budgets = []float64{0, 25, 100}
	o.TLBDivisor = 8
	return o
}

// FullOptions extends DefaultOptions to all three datasets (the paper's
// 6-dataset geomean per graph kernel).
func FullOptions(out io.Writer) Options {
	o := DefaultOptions(out)
	o.Datasets = []workloads.GraphDataset{
		workloads.DatasetKron, workloads.DatasetSocial, workloads.DatasetWeb,
	}
	return o
}

// policyKind selects the OS strategy for a run.
type policyKind int

const (
	polBaseline policyKind = iota
	polIdeal
	polPCC
	polHawkEye
	polLinux
)

func (k policyKind) String() string {
	switch k {
	case polBaseline:
		return "4KB"
	case polIdeal:
		return "THP-ideal"
	case polPCC:
		return "PCC"
	case polHawkEye:
		return "HawkEye"
	case polLinux:
		return "Linux-THP"
	}
	return "?"
}

// runCfg fully describes one simulation run.
type runCfg struct {
	kind       policyKind
	frag       float64 // fragmented fraction of physical memory
	budgetPct  float64 // promotion budget, % of footprint (0 = unlimited)
	threads    int     // cores used (≥1)
	selection  ospolicy.SelectionPolicy
	demote     bool
	pccEntries int  // 0 = default 128
	noFilter   bool // disable the cold-miss filter (ablation)
	noDecay    bool // disable counter decay (ablation)
	victim     bool // use the L2-eviction victim tracker instead of the PCC
	replace    pcc.ReplacementPolicy
	interval   uint64
	minFreq    uint32 // PCC engine: minimum walk frequency to promote (0 = default)
	giga       bool   // PCC engine: also promote 1GB regions (§3.2.3)
	// Dynamic pressure knobs (see vmm.PressureConfig); the pressure model is
	// enabled when any of them is non-zero. Baseline runs always execute
	// pressure-free (see baselineOf).
	churnAlloc    int     // churn source: frames allocated per tick
	churnFree     int     // churn source: frames freed per tick
	churnPinned   float64 // fraction of churn allocations that are pinned
	compactBudget int     // kcompactd daemon migration budget, frames per tick
	demoteWM      int     // free-block watermark that triggers pressure demotion
}

// pressureOn reports whether rc asks for the dynamic pressure model.
func (rc runCfg) pressureOn() bool {
	return rc.churnAlloc > 0 || rc.churnFree > 0 || rc.compactBudget > 0 || rc.demoteWM > 0
}

func (o Options) machineConfig(rc runCfg) vmm.Config {
	cfg := vmm.DefaultConfig()
	cfg.Cores = rc.threads
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if d := o.TLBDivisor; d > 1 {
		shrink := func(c *tlb.Config) {
			c.Entries /= d
			if c.Entries < c.Ways {
				c.Entries = c.Ways
			}
		}
		shrink(&cfg.TLB.L1D4K)
		shrink(&cfg.TLB.L1D2M)
		shrink(&cfg.TLB.L1D1G)
		shrink(&cfg.TLB.L2)
	}
	cfg.Phys = physmem.Config{TotalBytes: o.PhysBytes, MovableFillRatio: 0.5}
	cfg.FragFrac = rc.frag
	cfg.Seed = o.Seed
	cfg.PromotionInterval = o.Interval
	if rc.interval > 0 {
		cfg.PromotionInterval = rc.interval
	}
	cfg.EnablePCC = rc.kind == polPCC
	cfg.Enable1G = rc.kind == polPCC && rc.giga
	cfg.UseVictimTracker = rc.kind == polPCC && rc.victim
	cfg.DisableColdFilter = rc.noFilter
	if rc.pccEntries > 0 {
		cfg.PCC2M.Entries = rc.pccEntries
	}
	cfg.PCC2M.DisableDecay = rc.noDecay
	cfg.PCC2M.Replacement = rc.replace
	cfg.AuditEveryTick = o.Audit
	cfg.Shards = o.MachineShards
	if rc.pressureOn() {
		cfg.Pressure = vmm.PressureConfig{
			Enable:                true,
			ChurnAllocFrames:      rc.churnAlloc,
			ChurnFreeFrames:       rc.churnFree,
			ChurnPinnedFrac:       rc.churnPinned,
			CompactBudgetFrames:   rc.compactBudget,
			DemoteWatermarkBlocks: rc.demoteWM,
			MaxDemotionsPerTick:   2,
		}
	}
	if o.EventSink != nil {
		cfg.EventLogSize = -1 // default ring bound
	}
	return cfg
}

// policyFor builds the OS policy rc selects. For PCC runs it also returns
// the engine, which the caller binds to the cores its processes run on.
func policyFor(rc runCfg) (vmm.Policy, *ospolicy.PCCEngine) {
	switch rc.kind {
	case polIdeal:
		return ospolicy.AllHuge{}, nil
	case polPCC:
		ec := ospolicy.DefaultPCCEngineConfig()
		ec.Selection = rc.selection
		ec.EnableDemotion = rc.demote
		ec.MinFreq = rc.minFreq
		if rc.giga {
			ec.Giga = ospolicy.DefaultGiga1GConfig()
			ec.Giga.Enable = true
		}
		engine := ospolicy.NewPCCEngine(ec)
		return engine, engine
	case polHawkEye:
		return ospolicy.NewHawkEye(ospolicy.DefaultHawkEyeConfig()), nil
	case polLinux:
		return ospolicy.NewLinuxTHP(ospolicy.DefaultLinuxTHPConfig()), nil
	}
	return ospolicy.Baseline{}, nil
}

// soloBuild returns a simulate build function for the common single-process
// run: rc's machine (its config adjusted by tweak, if given) and policy, with
// wl as the only process, capped at rc's budget, running on cores
// 0..threads-1 and fed by a fresh stream from stream.
func (o Options) soloBuild(rc runCfg, wl workloads.Workload, stream func() trace.Stream,
	tweak ...func(*vmm.Config)) func() (*vmm.Machine, []*vmm.Job) {
	return func() (*vmm.Machine, []*vmm.Job) {
		cfg := o.machineConfig(rc)
		for _, t := range tweak {
			t(&cfg)
		}
		policy, engine := policyFor(rc)
		m := vmm.NewMachine(cfg, policy)
		p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
		if rc.budgetPct > 0 && rc.budgetPct < 100 {
			p.MaxHugeBytes = uint64(rc.budgetPct / 100 * float64(wl.Footprint()))
		}
		cores := make([]int, cfg.Cores)
		for i := range cores {
			cores[i] = i
			if engine != nil {
				engine.Bind(i, p)
			}
		}
		return m, []*vmm.Job{{Proc: p, Stream: stream(), Cores: cores}}
	}
}

// simulate is the package's one way to run a machine. build must return a
// fresh machine and its jobs, with fresh streams, on every call. simulate
// runs them to completion and closes every stream, even on a panic. When
// SnapshotCut picks a cut for name, the run stops there on a first machine,
// whose state goes through the snapshot encoding into a second build that
// finishes the run, by contract with the same result. The finished machine's
// metrics merge into Obs and its events drain into EventSink under name.
// Callers read whatever else they need from the returned machine. Any
// checkpoint failure is a violated invariant, so it panics like the auditor.
func (o Options) simulate(name string, build func() (*vmm.Machine, []*vmm.Job)) (*vmm.Machine, vmm.RunResult) {
	must := func(err error, format string, args ...any) {
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %s: %v", name, fmt.Sprintf(format, args...), err))
		}
	}
	var cut uint64
	if o.SnapshotCut != nil {
		cut = o.SnapshotCut(name)
	}
	var snap *snapshot.Snapshot
	if cut > 0 {
		func() {
			m, jobs := build()
			defer closeJobStreams(jobs)
			must(m.StartRun(jobs...), "start")
			m.RunUntil(cut)
			data, err := snapshot.EncodeBytes(snapshot.Capture(m, name))
			must(err, "checkpoint at %d", cut)
			snap, err = snapshot.DecodeBytes(data)
			must(err, "decoding checkpoint")
		}()
	}

	m, jobs := build()
	defer closeJobStreams(jobs)
	var res vmm.RunResult
	if snap == nil {
		res = m.Run(jobs...)
	} else {
		must(snapshot.Restore(m, snap), "restore at %d", cut)
		must(m.StartRun(jobs...), "resume at %d", cut)
		res = m.FinishRun()
	}
	if o.Obs != nil {
		o.Obs.Merge(m.Metrics())
	}
	o.EventSink.Drain(name, m.Events())
	return m, res
}

// closeJobStreams terminates every job's workload producer.
func closeJobStreams(jobs []*vmm.Job) {
	for _, j := range jobs {
		workloads.CloseStream(j.Stream)
	}
}

// variantSpecs expands an app name into the dataset/sorting variants the
// paper geomeans over (graph apps) or the single instance (synthetic apps).
func (o Options) variantSpecs(app string) []workloads.Spec {
	isGraph := false
	for _, g := range workloads.GraphAppNames() {
		if g == app {
			isGraph = true
			break
		}
	}
	if !isGraph {
		return []workloads.Spec{{
			Name:      app,
			SizeScale: o.SynthSizeScale,
			Accesses:  o.SynthAccesses,
		}}
	}
	var specs []workloads.Spec
	for _, d := range o.Datasets {
		s := workloads.Spec{Name: app, Dataset: d, Scale: o.Scale}
		if o.BothSortings {
			specs = append(specs, workloads.SortedSpecs(s)...)
		} else {
			specs = append(specs, s)
		}
	}
	return specs
}

// appResult aggregates a metric across an app's variants by geomean
// (speedups) or arithmetic mean (rates).
type appResult struct {
	Speedup float64
	PTWRate float64
	L1Miss  float64
	Huge    float64
	Cycles  float64
}

func specKey(s workloads.Spec, threads int) string {
	return fmt.Sprintf("%s/%s/%v/%d/t%d", s.Name, s.Dataset, s.Sorted, s.Scale, threads)
}

// cell names one aggregated datum of an experiment grid: application app
// simulated under rc, averaged across the app's dataset/sorting variants
// against a paired per-variant 4KB baseline, expressed as data so a whole
// grid can be scheduled at once.
type cell struct {
	app string
	rc  runCfg
}

// baselineOf derives the paired baseline configuration from rc: 4KB faults,
// pristine memory, no budget, and no dynamic pressure — every speedup in a
// grid is measured against the same undisturbed denominator.
func baselineOf(rc runCfg) runCfg {
	rc.kind, rc.frag, rc.budgetPct = polBaseline, 0, 0
	rc.churnAlloc, rc.churnFree, rc.churnPinned, rc.compactBudget, rc.demoteWM = 0, 0, 0, 0, 0
	return rc
}

// isBaselineRun reports whether rc is indistinguishable from the paired
// baseline configuration (4KB faults, pristine memory, no budget, no
// pressure): such runs alias the baseline simulation instead of being
// simulated twice.
func isBaselineRun(rc runCfg) bool {
	return rc.kind == polBaseline && rc.frag == 0 && rc.budgetPct == 0 && !rc.pressureOn()
}

// runCells evaluates a grid of cells on the run pool and returns one
// appResult per cell, in input order. It expands every cell into its
// per-variant simulations, deduplicates the baseline runs the speedup
// denominators share (each is simulated once, however many cells compare
// against it), fans every distinct simulation out as a self-contained pool
// task, and aggregates once all results are in. Simulations are
// deterministic given their spec, so the outcome is identical at any worker
// count.
func (o Options) runCells(cells []cell) ([]appResult, error) {
	type sim struct {
		name string
		spec workloads.Spec
		rc   runCfg
	}
	type plan struct {
		variant []int // task index per variant
		base    []int // paired baseline task index per variant
	}
	var sims []sim
	baseIdx := map[string]int{}
	plans := make([]plan, len(cells))
	for ci, c := range cells {
		rc := c.rc
		if rc.threads < 1 {
			rc.threads = 1
		}
		for _, s := range o.variantSpecs(c.app) {
			// The workload must be partitioned across the same number of
			// threads the machine runs; otherwise every access lands on one
			// core and the other PCCs stay empty.
			s.Threads = rc.threads
			key := specKey(s, rc.threads)
			bi, ok := baseIdx[key]
			if !ok {
				bi = len(sims)
				baseIdx[key] = bi
				sims = append(sims, sim{name: key + "/base", spec: s, rc: baselineOf(rc)})
			}
			vi := bi
			if !isBaselineRun(rc) {
				vi = len(sims)
				sims = append(sims, sim{
					name: fmt.Sprintf("%s/%v@%g%%", key, rc.kind, rc.budgetPct),
					spec: s, rc: rc,
				})
			}
			plans[ci].variant = append(plans[ci].variant, vi)
			plans[ci].base = append(plans[ci].base, bi)
		}
	}

	tasks := make([]Task[vmm.RunResult], len(sims))
	for i, s := range sims {
		tasks[i] = Task[vmm.RunResult]{
			Name: s.name,
			Run: func() (vmm.RunResult, error) {
				wl, err := workloads.Build(s.spec)
				if err != nil {
					return vmm.RunResult{}, err
				}
				_, res := o.simulate(s.name, o.soloBuild(s.rc, wl,
					func() trace.Stream { return o.streamFor(s.spec, wl) }))
				return res, nil
			},
		}
	}
	results, err := RunAll(o.pool(), tasks)
	if err != nil {
		return nil, err
	}

	out := make([]appResult, len(cells))
	for ci, pl := range plans {
		var speedups, ptws, l1s, huges, cycles []float64
		for k := range pl.variant {
			base, res := results[pl.base[k]], results[pl.variant[k]]
			speedups = append(speedups, metrics.Speedup(base.Cycles, res.Cycles))
			ptws = append(ptws, res.PTWRate)
			l1s = append(l1s, res.L1MissRate)
			huges = append(huges, float64(res.HugePages2M))
			cycles = append(cycles, res.Cycles)
		}
		out[ci] = appResult{
			Speedup: metrics.Geomean(speedups),
			PTWRate: metrics.Mean(ptws),
			L1Miss:  metrics.Mean(l1s),
			Huge:    metrics.Mean(huges),
			Cycles:  metrics.Mean(cycles),
		}
	}
	return out, nil
}

func (o Options) printf(format string, args ...interface{}) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}
