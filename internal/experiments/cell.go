package experiments

import (
	"bufio"
	"errors"
	"fmt"
	"strings"

	"pccsim/internal/ctrace"
	"pccsim/internal/mem"
	"pccsim/internal/ospolicy"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// Cell is one custom simulation beyond the paper's figures (pccsim's -app
// mode): an application under one OS policy and machine, run once per
// promotion budget and reported as raw counters, or, with Char, the
// characterization of the application's stream. Options supply the
// workload sizing, the machine's interval, memory and seed, and the run
// plumbing (pool, trace cache, audit, events, snapshot cuts).
// Validate's errors name the pccsim flag behind each field.
type Cell struct {
	// App is a registry application, an extension workload (phased,
	// bigtable, sparse) or an external trace file as "trace:<path>".
	App string
	// Dataset and Sorted select a graph application's input ("" = kron).
	Dataset workloads.GraphDataset
	Sorted  bool
	// Policy is base, ideal, pcc, pcc-rr, hawkeye, linux, or
	// "replay:<path>": the paper's §4 step two, which performs the
	// promotions of a recorded candidate trace (see Record) on a machine
	// without PCC hardware that ticks every Interval/100 accesses.
	Policy string
	// Budgets are the promotion budgets to run, in percent of the
	// footprint, where 0 and 100 both mean unlimited. Empty runs once,
	// unlimited.
	Budgets []float64
	// Frag is the fraction of physical memory fragmented at boot.
	Frag float64
	// Threads is the simulated core count; graph kernels split across it.
	Threads int
	// PCCEntries sizes the 2MB PCC (Table 2: 128).
	PCCEntries int
	// Demote, Victim and Giga configure the PCC policy: PCC-driven
	// demotion, the L2-eviction victim tracker in place of the PCC, and
	// 1GB promotion.
	Demote, Victim, Giga bool
	// Churn, Compact and DemoteWM turn on dynamic pressure: churn frames
	// allocated per tick, the kcompactd budget in frames per tick, and the
	// free-block watermark that triggers demotion.
	Churn, Compact, DemoteWM int
	// NUMA names an ext-numa placement on two nodes: bind, interleave or
	// local-first ("" = one node).
	NUMA string
	// Record, when set, is the file the finished run's promotion candidate
	// trace (ctrace.FromMachine) is written to: the paper's §4 step one. It
	// needs a single budget.
	Record string
	// Char characterizes the application's stream instead of simulating
	// it (see characterize); the policy and machine fields are unused.
	Char bool
}

// cellPolicies maps Cell.Policy names to the run configuration each selects.
var cellPolicies = map[string]runCfg{
	"base":    {kind: polBaseline},
	"ideal":   {kind: polIdeal},
	"pcc":     {kind: polPCC},
	"pcc-rr":  {kind: polPCC, selection: ospolicy.RoundRobin},
	"hawkeye": {kind: polHawkEye},
	"linux":   {kind: polLinux},
}

// cellExtensions are the workloads a cell runs beyond the registry, at
// their default sizes and with the base CPAs the ext-* experiments give them.
var cellExtensions = map[string]func() extWorkload{
	"phased":   func() extWorkload { return extWorkload{workloads.Phased(workloads.DefaultPhasedParams()), 16} },
	"bigtable": func() extWorkload { return extWorkload{workloads.BigTable(workloads.DefaultBigTableParams()), 16} },
	"sparse":   func() extWorkload { return extWorkload{workloads.Sparse(workloads.DefaultSparseParams()), 20} },
}

// configFlags names the pccsim flag that sets each vmm.Config field an
// Options or Cell value reaches, so a refused value is reported by the flag
// the user typed.
var configFlags = map[string]string{
	"Cores":                          "-threads",
	"PCC2M":                          "-pcc",
	"Phys":                           "-phys",
	"FragFrac":                       "-frag",
	"PromotionInterval":              "-interval",
	"Pressure.ChurnAllocFrames":      "-churn",
	"Pressure.CompactBudgetFrames":   "-compact",
	"Pressure.DemoteWatermarkBlocks": "-demote-wm",
}

// validateConfig runs cfg.Validate, prefixing a refusal with the flag that
// sets the field.
func validateConfig(cfg vmm.Config) error {
	err := cfg.Validate()
	var ce *vmm.ConfigError
	if errors.As(err, &ce) && configFlags[ce.Field] != "" {
		return fmt.Errorf("%s: %w", configFlags[ce.Field], err)
	}
	return err
}

// cellPlan is a validated cell: its workload (and the spec that built it,
// zero for an extension workload), a fresh-stream source, one run
// configuration per budget, and the machine settings the cell adds.
type cellPlan struct {
	wl     workloads.Workload
	spec   workloads.Spec
	stream func() trace.Stream
	runs   []runCfg
	tweak  func(*vmm.Config)
}

// Validate refuses a cell that cannot run under o, before anything runs.
func (c Cell) Validate(o Options) error {
	_, err := c.plan(o)
	return err
}

func (c Cell) plan(o Options) (cellPlan, error) {
	var p cellPlan
	base, ok := cellPolicies[c.Policy]
	if path, replay := strings.CutPrefix(c.Policy, "replay:"); replay {
		if o.Interval < 100 {
			return p, fmt.Errorf("-interval %d: replay ticks every interval/100 accesses, so it must be at least 100", o.Interval)
		}
		tr, err := ctrace.Load(path)
		if err != nil {
			return p, fmt.Errorf("-policy %s: %w", c.Policy, err)
		}
		base, ok = runCfg{kind: polReplay, replay: tr}, true
	}
	if !ok {
		return p, fmt.Errorf("-policy %q: want base, ideal, pcc, pcc-rr, hawkeye, linux or replay:<file>", c.Policy)
	}
	placement := numaPlacements[c.NUMA]
	if placement == nil && c.NUMA != "" {
		return p, fmt.Errorf("-numa %q: want bind, interleave or local-first", c.NUMA)
	}
	if err := (workloads.Spec{Dataset: c.Dataset}).Validate(); err != nil {
		return p, err
	}
	p.tweak = func(cfg *vmm.Config) {
		cfg.Cores = c.Threads
		cfg.PCC2M.Entries = c.PCCEntries
		if placement != nil {
			placement(cfg)
		}
	}
	budgets := c.Budgets
	if len(budgets) == 0 {
		budgets = []float64{0}
	}
	if c.Record != "" && len(budgets) > 1 {
		return p, fmt.Errorf("-record writes one run's trace, but -budgets lists %d", len(budgets))
	}
	for _, b := range budgets {
		if !(b >= 0 && b <= 100) {
			return p, fmt.Errorf("-budgets: %v is not a percentage in [0,100]", b)
		}
		rc := base
		rc.budgetPct, rc.frag, rc.threads = b, c.Frag, c.Threads
		rc.demote, rc.victim, rc.giga = c.Demote, c.Victim, c.Giga
		rc.churnAlloc, rc.compactBudget, rc.demoteWM = c.Churn, c.Compact, c.DemoteWM
		cfg := o.machineConfig(rc)
		p.tweak(&cfg)
		if err := validateConfig(cfg); err != nil {
			return p, err
		}
		p.runs = append(p.runs, rc)
	}

	if ext, ok := cellExtensions[c.App]; ok {
		wl := ext()
		p.wl, p.stream = wl, wl.Stream
		return p, nil
	}
	spec := workloads.Spec{
		Name: c.App, Dataset: c.Dataset, Sorted: c.Sorted, Scale: o.Scale, Threads: c.Threads,
		SizeScale: o.SynthSizeScale, Accesses: o.SynthAccesses,
	}
	wl, err := workloads.Build(spec)
	if err != nil {
		return p, fmt.Errorf("-app %s: %w", c.App, err)
	}
	p.wl, p.spec, p.stream = wl, spec, func() trace.Stream { return o.streamFor(spec, wl) }
	return p, nil
}

// RunCell validates c, simulates each of its budgets on o's run pool, and
// writes one block of raw counters per budget to o.Out, in budget order.
// Each run publishes under the name cell/<app>/<policy>/b<budget>. With
// Char it writes the stream's characterization instead.
func RunCell(o Options, c Cell) error {
	p, err := c.plan(o)
	if err != nil {
		return err
	}
	if c.Char {
		return o.characterize(p)
	}
	tasks := make([]Task[string], len(p.runs))
	for i, rc := range p.runs {
		name := fmt.Sprintf("cell/%s/%s/b%g", c.App, c.Policy, rc.budgetPct)
		tasks[i] = Task[string]{Name: name, Run: func() (string, error) {
			m, res := o.simulate(name, o.soloBuild(rc, p.wl, p.stream, p.tweak))
			block := c.report(p.wl, rc, m, res)
			if c.Record != "" {
				tr := ctrace.FromMachine(m)
				if err := tr.Save(c.Record); err != nil {
					return "", err
				}
				block += fmt.Sprintf("recorded %d candidate promotions to %s\n", len(tr.Events), c.Record)
			}
			return block, nil
		}}
	}
	blocks, err := RunAll(o.pool(), tasks)
	if err != nil {
		return err
	}
	o.printf("%s", strings.Join(blocks, "\n"))
	return nil
}

// report renders one finished run's raw counters.
func (c Cell) report(wl workloads.Workload, rc runCfg, m *vmm.Machine, res vmm.RunResult) string {
	var b strings.Builder
	line := func(label, format string, args ...any) {
		fmt.Fprintf(&b, "%-14s %s\n", label, fmt.Sprintf(format, args...))
	}
	p := m.Procs()[0]
	line("workload", "%s (footprint %s)", wl.Name(), mem.HumanBytes(wl.Footprint()))
	line("policy", "%s  frag=%.0f%%  budget=%g%%  threads=%d", m.Policy().Name(), 100*c.Frag, rc.budgetPct, c.Threads)
	line("accesses", "%d", res.Accesses)
	line("cycles", "%.4g", res.Cycles)
	line("PTW rate", "%.3f%%", 100*res.PTWRate)
	line("L1 miss rate", "%.3f%%", 100*res.L1MissRate)
	line("huge pages", "%d (2MB), %d (1GB)", res.HugePages2M, res.HugePages1G)
	line("promotions", "%d   demotions %d", res.Promotions, res.Demotions)
	if rp, ok := m.Policy().(*ctrace.ReplayPolicy); ok {
		n := len(rc.replay.Events)
		line("replay", "replayed %d of %d events", n-rp.Remaining(), n)
	}
	line("stall cycles", "%.4g   background %.4g", res.StallCycles, res.BackgroundCycles)
	line("phys", "%v", m.Phys())
	if rc.pressureOn() {
		st := m.Phys().Stats()
		line("pressure", "churn alloc=%d free=%d pinned=%d blocked=%d   daemon migrated=%d rebuilt=%d   pressure demotions=%d",
			st.ChurnAllocFrames, st.ChurnFreeFrames, st.ChurnPinnedFrames, st.ChurnBlockedAllocs,
			st.DaemonMigrated, st.DaemonRebuilt, m.PressureDemotions)
	}
	line("bloat", "%s (touched %s)", mem.HumanBytes(p.BloatBytes()), mem.HumanBytes(p.TouchedBytes()))
	return b.String()
}

// characterize writes the stream characterization of p's workload to o.Out:
// as '#' lines, the Fig. 2 reuse classes of its stream built with SkipInit
// (a graph kernel's initialization pass left out; a synthetic app keeps
// its own, since only the graph kernels read SkipInit) and the columnar
// block shape of its full stream, the one the trace cache records; then
// one TSV row per page.
func (o Options) characterize(p cellPlan) error {
	steady := p.wl
	if p.spec.Name != "" {
		s := p.spec
		s.SkipInit = true
		var err error
		if steady, err = workloads.Build(s); err != nil {
			return err
		}
	}
	prof := profileReuse(steady)
	st := p.wl.Stream()
	shape := trace.MeasureBlocks(st)
	workloads.CloseStream(st)

	w := bufio.NewWriter(o.Out)
	fmt.Fprintf(w, "# app=%s accesses=%d pages=%d threshold=%d\n",
		p.wl.Name(), prof.accesses, len(prof.pages), trace.ClassifyThreshold)
	for _, c := range reuseClasses {
		fmt.Fprintf(w, "# class %-14s pages=%-10d accesses=%d\n", c, prof.sum.Pages[c], prof.sum.Accesses[c])
	}
	fmt.Fprintf(w, "# %s: %s\n", p.wl.Name(), shape)
	fmt.Fprintln(w, "page\tdist4k\tdist2m\taccesses\tclass")
	for _, r := range prof.pages {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%d\t%s\n", r.Page, r.Dist4K, r.Dist2M, r.Accesses, r.Class)
	}
	return w.Flush()
}
