package experiments

import (
	"fmt"

	"pccsim/internal/metrics"
	"pccsim/internal/plot"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// FigTenantRow is one grid point of the multi-tenant sweep: a tenant count
// and quota skew evaluated with lifecycle churn off and on, under the PCC
// engine and a scarce machine-wide huge page budget.
type FigTenantRow struct {
	Tenants int
	Skew    string // "even" or "skewed" quota split
	Churn   bool
	NUMA    string // "", "interleave", "local-first"
	// MissMin/MissMax are the per-tenant L1 TLB miss rates in percent.
	MissMin, MissMax float64
	// FairMin/FairMax bound promotion fairness: each tenant's share of the
	// promotions divided by its share of the combined footprint (1.0 =
	// perfectly proportional).
	FairMin, FairMax float64
	// Interference is the wall-clock inflation the churn processes impose:
	// this cell's cycles over the matching churn-off cell's (1.0 for
	// churn-off rows and the NUMA rows, which have no churn-off twin).
	Interference float64
	// RemoteMax is the worst per-tenant remote-placement share (0 when the
	// NUMA model is off).
	RemoteMax float64
	// Spawns/Exits/Execs are the machine's lifecycle event counts.
	Spawns, Exits, Execs uint64
}

// figTenantApps are the co-located workloads, in tenant order: a mix of
// TLB-sensitive and -insensitive synthetic applications so promotion
// fairness is contested rather than trivial.
var figTenantApps = []string{"mcf", "canneal", "omnetpp", "xalancbmk"}

// figTenantCell fully describes one multi-tenant simulation.
type figTenantCell struct {
	tenants int
	skew    string
	churn   bool
	numa    string
}

func (c figTenantCell) name() string {
	churn := "off"
	if c.churn {
		churn = "on"
	}
	n := c.numa
	if n == "" {
		n = "none"
	}
	return fmt.Sprintf("figtenant/t%d/%s/churn-%s/numa-%s", c.tenants, c.skew, churn, n)
}

// shares returns the per-tenant HugeShare split: even divides the budget
// equally; skewed hands the first tenant 70% and splits the rest.
func (c figTenantCell) shares() []float64 {
	out := make([]float64, c.tenants)
	if c.skew == "skewed" {
		out[0] = 0.7
		for i := 1; i < c.tenants; i++ {
			out[i] = 0.3 / float64(c.tenants-1)
		}
		return out
	}
	for i := range out {
		out[i] = 1.0 / float64(c.tenants)
	}
	return out
}

// figTenantResult is one cell's measured outcome.
type figTenantResult struct {
	cycles    float64
	missPct   []float64 // per tenant
	fairness  []float64 // per tenant
	remoteMax float64
	lifecycle vmm.LifecycleStats
}

// FigTenant is the fleet-scale multi-tenant study: several tenants share one
// machine, one core each, under the PCC engine with a machine-wide huge page
// budget carved into per-tenant quotas (TenantConfig.HugeShare). The grid
// sweeps tenant count × quota skew × lifecycle churn, reporting per-tenant
// TLB miss rates, promotion fairness (share of promotions vs share of
// footprint), and noisy-neighbor interference (cycle inflation once churn
// processes compete for the same budget and pay shootdown IPIs into every
// core). Two extra cells run the 2-tenant churn configuration on a 2-node
// NUMA machine — interleaved placement and local-first with per-VMA
// bind/preferred policies — so placement ledgers and per-VMA policies are
// exercised (and snapshot-cut) under churn too.
func FigTenant(o Options) ([]FigTenantRow, error) {
	tenantCounts := []int{2, 4}
	if o.Tenants > 0 {
		tenantCounts = []int{o.Tenants}
	}
	skews := []string{"even", "skewed"}
	if o.QuotaSkew != "" {
		skews = []string{o.QuotaSkew}
	}

	var cells []figTenantCell
	for _, tenants := range tenantCounts {
		for _, skew := range skews {
			for _, churn := range []bool{false, true} {
				cells = append(cells, figTenantCell{tenants: tenants, skew: skew, churn: churn})
			}
		}
	}
	// The NUMA cells ride on the smallest swept tenant count and first skew,
	// so they stay present however the CLI restricts the grid.
	cells = append(cells,
		figTenantCell{tenants: tenantCounts[0], skew: skews[0], churn: true, numa: "interleave"},
		figTenantCell{tenants: tenantCounts[0], skew: skews[0], churn: true, numa: "local-first"},
	)

	tasks := make([]Task[figTenantResult], len(cells))
	for i, c := range cells {
		tasks[i] = Task[figTenantResult]{
			Name: c.name(),
			Run:  func() (figTenantResult, error) { return o.runTenantCell(c) },
		}
	}
	results, err := RunAll(o.pool(), tasks)
	if err != nil {
		return nil, err
	}

	// Pair each churn-on cell with its churn-off twin for the interference
	// ratio.
	baseCycles := map[string]float64{}
	for i, c := range cells {
		if !c.churn && c.numa == "" {
			baseCycles[fmt.Sprintf("t%d/%s", c.tenants, c.skew)] = results[i].cycles
		}
	}

	var rows []FigTenantRow
	for i, c := range cells {
		r := results[i]
		row := FigTenantRow{
			Tenants: c.tenants, Skew: c.skew, Churn: c.churn, NUMA: c.numa,
			Interference: 1,
			RemoteMax:    r.remoteMax,
			Spawns:       r.lifecycle.Spawns,
			Exits:        r.lifecycle.Exits,
			Execs:        r.lifecycle.Execs,
		}
		row.MissMin, row.MissMax = minMax(r.missPct)
		row.FairMin, row.FairMax = minMax(r.fairness)
		if c.churn && c.numa == "" {
			if base := baseCycles[fmt.Sprintf("t%d/%s", c.tenants, c.skew)]; base > 0 {
				row.Interference = r.cycles / base
			}
		}
		rows = append(rows, row)
	}

	t := metrics.NewTable("Tenants", "Skew", "Churn", "NUMA",
		"miss% min", "miss% max", "fair min", "fair max", "interf", "remote", "spawn/exit/exec")
	for _, r := range rows {
		churn := "off"
		if r.Churn {
			churn = "on"
		}
		numa := r.NUMA
		if numa == "" {
			numa = "-"
		}
		t.AddRowf(fmt.Sprintf("%d", r.Tenants), r.Skew, churn, numa,
			r.MissMin, r.MissMax, r.FairMin, r.FairMax, r.Interference, r.RemoteMax,
			fmt.Sprintf("%d/%d/%d", r.Spawns, r.Exits, r.Execs))
	}
	o.printf("Multi-tenant fleet sweep — per-tenant quotas (HugeShare of MaxHugeBytesTotal), lifecycle churn, PCC engine\n\n%s", t.String())
	o.printf("\ninterference (cycles vs churn-off twin):")
	for _, r := range rows {
		if r.Churn && r.NUMA == "" {
			o.printf("  t%d/%s→%.4fx", r.Tenants, r.Skew, r.Interference)
		}
	}
	o.printf("\n")

	chart := plot.LineChart{
		Title:  "FigTenant — promotion fairness under quota skew and churn",
		XLabel: "tenant count",
		YLabel: "min promotion share / footprint share",
	}
	for _, skew := range []string{"even", "skewed"} {
		for _, churn := range []bool{false, true} {
			name := fmt.Sprintf("%s/churn-off", skew)
			if churn {
				name = fmt.Sprintf("%s/churn-on", skew)
			}
			l := plot.Line{Name: name}
			for _, r := range rows {
				if r.Skew == skew && r.Churn == churn && r.NUMA == "" {
					l.X = append(l.X, float64(r.Tenants))
					l.Y = append(l.Y, r.FairMin)
				}
			}
			chart.Lines = append(chart.Lines, l)
		}
	}
	o.savePlot("figtenant", chart.SVG())
	return rows, nil
}

// runTenantCell simulates one multi-tenant machine: each tenant runs its own
// workload on its own core, registered through AddTenant with a HugeShare
// slice of a deliberately scarce machine-wide budget. Under a snapshot cut,
// churn processes, the lifecycle RNG position, NUMA placements and per-VMA
// policies all travel through the snapshot.
func (o Options) runTenantCell(c figTenantCell) (figTenantResult, error) {
	specs := make([]workloads.Spec, c.tenants)
	wls := make([]workloads.Workload, c.tenants)
	var combined uint64
	for i := 0; i < c.tenants; i++ {
		specs[i] = workloads.Spec{
			Name:      figTenantApps[i%len(figTenantApps)],
			SizeScale: o.SynthSizeScale,
			Accesses:  o.SynthAccesses,
		}
		wl, err := workloads.Build(specs[i])
		if err != nil {
			return figTenantResult{}, err
		}
		wls[i] = wl
		combined += wl.Footprint()
	}

	shares := c.shares()
	// A scarce shared budget: a quarter of the combined footprint, floored
	// so the smallest share still resolves to at least two 2MB pages
	// (AddTenant rejects shares that round to zero).
	total := combined / 4
	minShare := shares[0]
	for _, s := range shares {
		if s < minShare {
			minShare = s
		}
	}
	if float64(total)*minShare < float64(4<<20) {
		total = uint64(float64(4<<20)/minShare) + 2<<20
	}

	rc := runCfg{kind: polPCC, threads: c.tenants}
	m, res := o.simulate(c.name(), func() (*vmm.Machine, []*vmm.Job) {
		cfg := o.machineConfig(rc)
		cfg.MaxHugeBytesTotal = total
		if c.churn {
			lc := vmm.DefaultLifecycleConfig()
			lc.MaxHugeBytes = 4 << 20
			lc.HugeRegions = 2
			if o.ChurnProcs > 0 {
				lc.MaxProcs = o.ChurnProcs
			}
			cfg.Lifecycle = lc
		}
		switch c.numa {
		case "interleave":
			cfg.NUMA = vmm.DefaultNUMAConfig()
			cfg.NUMA.Policy = vmm.NUMAInterleave
		case "local-first":
			cfg.NUMA = vmm.DefaultNUMAConfig()
			cfg.NUMA.Policy = vmm.NUMALocalFirst
			cfg.NUMA.LocalShare = 0.5
		}

		policy, engine := policyFor(rc)
		m := vmm.NewMachine(cfg, policy)
		jobs := make([]*vmm.Job, c.tenants)
		for i, wl := range wls {
			tc := vmm.TenantConfig{
				Name:      fmt.Sprintf("tenant%d-%s", i, wl.Name()),
				Ranges:    wl.Ranges(),
				BaseCPA:   wl.BaseCPA(),
				HugeShare: shares[i],
			}
			if c.numa != "" {
				tc.HomeNode = i % cfg.NUMA.Nodes
				// In the local-first cell the tenants install per-VMA
				// policies overriding the machine-wide placement (tenant 0
				// binds to its home node, tenant 1 prefers the other node
				// and spills at the LocalShare cap); the interleave cell
				// leaves them on the machine policy so both placement layers
				// are exercised — and snapshot-cut — mid-run.
				if c.numa == "local-first" {
					if i == 0 {
						tc.MemPolicy = vmm.VMAMemPolicy{Mode: vmm.MemPolicyBind, Nodes: []int{tc.HomeNode}}
					} else if i == 1 {
						tc.MemPolicy = vmm.VMAMemPolicy{Mode: vmm.MemPolicyPreferred, Nodes: []int{(tc.HomeNode + 1) % cfg.NUMA.Nodes}}
					}
				}
			}
			p, err := m.AddTenant(tc)
			if err != nil {
				panic(fmt.Sprintf("experiments: %s: %v", c.name(), err))
			}
			engine.Bind(i, p)
			jobs[i] = &vmm.Job{Proc: p, Stream: o.streamFor(specs[i], wl), Cores: []int{i}}
		}
		return m, jobs
	})

	out := figTenantResult{cycles: res.Cycles, lifecycle: m.LifecycleStats()}
	var totProm uint64
	for i := 0; i < c.tenants; i++ {
		totProm += res.PerProc[i].Promotions
	}
	procs := m.Procs()
	for i := 0; i < c.tenants; i++ {
		pr := res.PerProc[i]
		missPct := 0.0
		if pr.Accesses > 0 {
			missPct = 100 * float64(m.Core(i).TLB.L1Misses()) / float64(pr.Accesses)
		}
		out.missPct = append(out.missPct, missPct)
		fair := 0.0
		if totProm > 0 && combined > 0 && pr.Footprint > 0 {
			promShare := float64(pr.Promotions) / float64(totProm)
			footShare := float64(pr.Footprint) / float64(combined)
			fair = promShare / footShare
		}
		out.fairness = append(out.fairness, fair)
		// The first c.tenants registered processes are the tenants (churn
		// processes, if any survive, sit after them).
		if c.numa != "" && i < len(procs) {
			if rs := m.RemoteShare(procs[i]); rs > out.remoteMax {
				out.remoteMax = rs
			}
		}
	}
	return out, nil
}

// minMax returns the smallest and largest element (0, 0 for empty input).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
