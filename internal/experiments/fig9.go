package experiments

import (
	"fmt"

	"pccsim/internal/metrics"
	"pccsim/internal/ospolicy"
	"pccsim/internal/plot"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// Fig9Point is one multiprocess utility point for one of the two co-running
// applications.
type Fig9Point struct {
	BudgetPct float64
	Speedup   float64
	HugePages int
}

// Fig9Series is one application's curve under one OS selection policy.
type Fig9Series struct {
	App    string
	Policy string
	Points []Fig9Point
	Ideal  float64 // co-run all-THP ceiling
}

// Fig9 reproduces Figure 9: two single-threaded applications co-running on
// two cores with per-core PCCs and huge pages as a shared system resource
// capped at a percentage of the *combined* footprint. Case (a) pairs
// TLB-sensitive PR with TLB-insensitive mcf; case (b) pairs PR with SSSP.
// Speedups are relative to the same co-run with 4KB pages only.
func Fig9(o Options, appA, appB string) ([]Fig9Series, error) {
	if appA == "" {
		appA, appB = "PR", "mcf"
	}
	specA := o.coSpec(appA)
	specB := o.coSpec(appB)

	type pair struct{ a, b vmm.ProcResult }
	run := func(name string, rc runCfg) (pair, error) {
		wlA, err := workloads.Build(specA)
		if err != nil {
			return pair{}, err
		}
		wlB, err := workloads.Build(specB)
		if err != nil {
			return pair{}, err
		}
		rc.threads = 2
		_, res := o.simulate(name, func() (*vmm.Machine, []*vmm.Job) {
			cfg := o.machineConfig(rc)
			if rc.budgetPct > 0 && rc.budgetPct < 100 {
				combined := float64(wlA.Footprint() + wlB.Footprint())
				cfg.MaxHugeBytesTotal = uint64(rc.budgetPct / 100 * combined)
			}
			policy, engine := policyFor(rc)
			m := vmm.NewMachine(cfg, policy)
			pA := m.AddProcess(wlA.Name(), wlA.Ranges(), wlA.BaseCPA())
			pB := m.AddProcess(wlB.Name(), wlB.Ranges(), wlB.BaseCPA())
			if engine != nil {
				engine.Bind(0, pA)
				engine.Bind(1, pB)
			}
			return m, []*vmm.Job{
				{Proc: pA, Stream: o.streamFor(specA, wlA), Cores: []int{0}},
				{Proc: pB, Stream: o.streamFor(specB, wlB), Cores: []int{1}},
			}
		})
		return pair{a: res.PerProc[0], b: res.PerProc[1]}, nil
	}

	// Task list: base, ideal, then the selection × budget grid; budget 0
	// aliases the base run (index 0) instead of re-simulating it.
	var tasks []Task[pair]
	add := func(suffix string, rc runCfg) {
		name := "fig9/" + appA + "+" + appB + suffix
		tasks = append(tasks, Task[pair]{Name: name, Run: func() (pair, error) { return run(name, rc) }})
	}
	add("/base", runCfg{kind: polBaseline})
	add("/ideal", runCfg{kind: polIdeal})
	var gridIdx []int
	for _, sel := range []ospolicy.SelectionPolicy{ospolicy.HighestFrequency, ospolicy.RoundRobin} {
		for _, b := range o.Budgets {
			if b == 0 {
				gridIdx = append(gridIdx, 0)
				continue
			}
			add(fmt.Sprintf("/pcc/%s/b%g", sel, b), runCfg{kind: polPCC, selection: sel, budgetPct: b})
			gridIdx = append(gridIdx, len(tasks)-1)
		}
	}
	res, err := RunAll(o.pool(), tasks)
	if err != nil {
		return nil, err
	}
	base, ideal := res[0], res[1]

	mkSeries := func(app string, pol string) *Fig9Series {
		return &Fig9Series{App: app, Policy: pol}
	}
	sAH := mkSeries(appA, "highest-freq")
	sBH := mkSeries(appB, "highest-freq")
	sAR := mkSeries(appA, "round-robin")
	sBR := mkSeries(appB, "round-robin")
	sAH.Ideal = metrics.Speedup(base.a.RuntimeCycles, ideal.a.RuntimeCycles)
	sAR.Ideal = sAH.Ideal
	sBH.Ideal = metrics.Speedup(base.b.RuntimeCycles, ideal.b.RuntimeCycles)
	sBR.Ideal = sBH.Ideal

	gi := 0
	for _, sel := range []ospolicy.SelectionPolicy{ospolicy.HighestFrequency, ospolicy.RoundRobin} {
		for _, b := range o.Budgets {
			p := res[gridIdx[gi]]
			gi++
			ptA := Fig9Point{BudgetPct: b, Speedup: metrics.Speedup(base.a.RuntimeCycles, p.a.RuntimeCycles), HugePages: p.a.HugePages2M}
			ptB := Fig9Point{BudgetPct: b, Speedup: metrics.Speedup(base.b.RuntimeCycles, p.b.RuntimeCycles), HugePages: p.b.HugePages2M}
			if sel == ospolicy.HighestFrequency {
				sAH.Points = append(sAH.Points, ptA)
				sBH.Points = append(sBH.Points, ptB)
			} else {
				sAR.Points = append(sAR.Points, ptA)
				sBR.Points = append(sBR.Points, ptB)
			}
		}
	}

	o.printf("Figure 9 — multiprocess: %s + %s (shared huge budget, %% of combined footprint)\n\n", appA, appB)
	t := metrics.NewTable("Budget%",
		appA+" HF", appA+" RR", appA+" #THP(HF)",
		appB+" HF", appB+" RR", appB+" #THP(HF)")
	for i := range sAH.Points {
		t.AddRowf(sAH.Points[i].BudgetPct,
			sAH.Points[i].Speedup, sAR.Points[i].Speedup, sAH.Points[i].HugePages,
			sBH.Points[i].Speedup, sBR.Points[i].Speedup, sBH.Points[i].HugePages)
	}
	o.printf("%s", t.String())
	o.printf("ideal: %s=%.3f %s=%.3f\n\n", appA, sAH.Ideal, appB, sBH.Ideal)

	toCurve := func(s *Fig9Series) metrics.Curve {
		c := metrics.Curve{Name: s.App + " " + s.Policy}
		for _, p := range s.Points {
			c.Points = append(c.Points, metrics.CurvePoint{BudgetPct: p.BudgetPct, Speedup: p.Speedup})
		}
		return c
	}
	chart := plot.CurveChart("Fig 9 — "+appA+" + "+appB+" (shared budget)",
		toCurve(sAH), toCurve(sAR), toCurve(sBH), toCurve(sBR))
	chart.Refs = []plot.HLine{
		{Name: appA + " ideal", Y: sAH.Ideal},
		{Name: appB + " ideal", Y: sBH.Ideal},
	}
	o.savePlot("fig9_"+appA+"_"+appB, chart.SVG())

	return []Fig9Series{*sAH, *sBH, *sAR, *sBR}, nil
}

// coSpec builds the single-variant spec used in co-run studies (the
// DBG-sorted Kronecker graph for graph apps; the paper does not average
// sortings here).
func (o Options) coSpec(app string) workloads.Spec {
	for _, g := range workloads.GraphAppNames() {
		if g == app {
			return workloads.Spec{Name: app, Dataset: workloads.DatasetKron, Scale: o.Scale, Sorted: true}
		}
	}
	return workloads.Spec{Name: app, SizeScale: o.SynthSizeScale, Accesses: o.SynthAccesses}
}
