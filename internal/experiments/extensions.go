package experiments

import (
	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// This file holds the extension experiments beyond the paper's figures:
// the §5.4.1 victim-cache design alternative, §3.2.3's 1GB promotion,
// §3.3.3's phased-application demotion, and the PWC refs/walk validation
// the §5.4.1 discussion cites.

// ExtVictimRow compares the PCC against the equal-sized L2-eviction victim
// tracker for one application.
type ExtVictimRow struct {
	App     string
	PCC     float64
	Victim  float64
	PCCHuge float64
	VicHuge float64
}

// ExtVictimCache quantifies §5.4.1's argument that an L2-TLB victim cache
// is a poorer candidate source than the PCC: evictions are dominated by
// streamed translations, so at a tight budget the victim tracker wastes
// promotions on data too sparsely accessed to benefit.
func ExtVictimCache(o Options) ([]ExtVictimRow, error) {
	o.Datasets = []workloads.GraphDataset{workloads.DatasetKron}
	// The budget must be scarcer than the HUB set for selection quality to
	// matter: 4% at full scale; 25% at CI scale where 4% of a miniature
	// footprint rounds below one region.
	budget := 4.0
	if o.Scale < workloads.DefaultScale {
		budget = 25
	}
	apps := []string{"BFS", "SSSP", "PR"}
	var cells []cell
	for _, app := range apps {
		cells = append(cells,
			cell{app, runCfg{kind: polPCC, budgetPct: budget}},
			cell{app, runCfg{kind: polPCC, budgetPct: budget, victim: true}})
	}
	res, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}
	var rows []ExtVictimRow
	for i, app := range apps {
		p, v := res[2*i], res[2*i+1]
		rows = append(rows, ExtVictimRow{
			App: app, PCC: p.Speedup, Victim: v.Speedup,
			PCCHuge: p.Huge, VicHuge: v.Huge,
		})
	}
	t := metrics.NewTable("App", "PCC speedup", "VictimCache speedup", "PCC huge", "Victim huge")
	for _, r := range rows {
		t.AddRowf(r.App, r.PCC, r.Victim, int(r.PCCHuge), int(r.VicHuge))
	}
	o.printf("Extension — PCC vs equal-sized L2-eviction victim tracker (%.0f%% budget, §5.4.1)\n\n%s\n", budget, t.String())
	return rows, nil
}

// Ext1GResult reports the 1GB promotion study.
type Ext1GResult struct {
	BaselineCycles float64
	With2MOnly     float64
	With1G         float64
	Pages1G        int
	Pages2M        int
}

// Ext1G exercises §3.2.3's 1GB support on a giant uniformly-accessed table:
// every 2MB region is individually lukewarm, but whole 1GB regions
// aggregate enough walks that the 1GB PCC ranks them for promotion. 2MB
// promotion alone must promote hundreds of regions to match what a couple
// of 1GB pages achieve.
func Ext1G(o Options) (*Ext1GResult, error) {
	params := workloads.DefaultBigTableParams()
	if o.Scale < workloads.DefaultScale {
		// CI scale: shrink the table but keep it >1GB so regions exist.
		params.TableBytes = 2 << 30
		params.Accesses = o.SynthAccesses * 4
	}
	run := func(name string, rc runCfg) vmm.RunResult {
		wl := extWorkload{workloads.BigTable(params), 16}
		_, res := o.simulate("ext-1g/"+name, o.soloBuild(rc, wl, wl.Stream, func(cfg *vmm.Config) {
			cfg.Phys.TotalBytes = 8 << 30 // room for 1GB windows
		}))
		return res
	}
	base := run("4KB", runCfg{kind: polBaseline})
	only2M := run("2MB", runCfg{kind: polPCC})
	with1G := run("2MB+1GB", runCfg{kind: polPCC, giga: true})

	res := &Ext1GResult{
		BaselineCycles: base.Cycles,
		With2MOnly:     metrics.Speedup(base.Cycles, only2M.Cycles),
		With1G:         metrics.Speedup(base.Cycles, with1G.Cycles),
		Pages1G:        with1G.HugePages1G,
		Pages2M:        with1G.HugePages2M,
	}

	t := metrics.NewTable("Config", "Speedup", "1GB pages", "2MB pages")
	t.AddRowf("4KB baseline", 1.0, 0, 0)
	t.AddRowf("PCC, 2MB only", res.With2MOnly, 0, only2M.HugePages2M)
	t.AddRowf("PCC, 2MB+1GB", res.With1G, res.Pages1G, with1G.HugePages2M)
	o.printf("Extension — 1GB page support on a uniformly-accessed %s table (§3.2.3)\n\n%s\n",
		mem.HumanBytes(params.TableBytes), t.String())
	return res, nil
}

// ExtPhasesResult reports the phased-demotion study.
type ExtPhasesResult struct {
	NoDemote   float64
	WithDemote float64
	Demotions  uint64
}

// ExtPhases exercises §3.3.3's application-phases scenario: a workload
// whose hot set migrates to a disjoint half mid-run, under memory pressure
// tight enough that phase 2 can only get huge pages by demoting phase 1's
// now-cold ones.
func ExtPhases(o Options) (*ExtPhasesResult, error) {
	params := workloads.DefaultPhasedParams()
	if o.Scale < workloads.DefaultScale {
		params.HalfBytes = 16 << 20
		params.AccessesPerPhase = o.SynthAccesses * 2
	}
	run := func(name string, demote bool) vmm.RunResult {
		wl := extWorkload{workloads.Phased(params), 16}
		_, res := o.simulate("ext-phases/"+name, o.soloBuild(runCfg{kind: polPCC, demote: demote}, wl, wl.Stream,
			func(cfg *vmm.Config) {
				// Physical pool sized to fit ~one half's huge pages only.
				cfg.Phys.TotalBytes = params.HalfBytes
			}))
		return res
	}
	noDem := run("no-demote", false)
	withDem := run("demote", true)
	res := &ExtPhasesResult{
		NoDemote:   noDem.Cycles,
		WithDemote: withDem.Cycles,
		Demotions:  withDem.Demotions,
	}
	t := metrics.NewTable("Config", "Cycles", "Demotions", "Speedup vs no-demote")
	t.AddRowf("PCC, no demotion", noDem.Cycles, 0, 1.0)
	t.AddRowf("PCC + demotion", withDem.Cycles, withDem.Demotions,
		metrics.Speedup(noDem.Cycles, withDem.Cycles))
	o.printf("Extension — phased application under memory pressure (§3.3.3)\n\n%s\n", t.String())
	return res, nil
}

// ExtPWCRow reports per-app page walk cache effectiveness.
type ExtPWCRow struct {
	App         string
	RefsPerWalk float64
	PWCHitRate  float64
}

// ExtPWC validates the walker's MMU-cache model against §5.4.1's cited
// band: page walk caches reduce walk cost to ~1.1-1.4 memory references
// per walk on real hardware.
func ExtPWC(o Options) ([]ExtPWCRow, error) {
	var rows []ExtPWCRow
	for _, app := range AppOrder(o) {
		spec := o.variantSpecs(app)[0]
		wl, err := workloads.Build(spec)
		if err != nil {
			return nil, err
		}
		m, _ := o.simulate("ext-pwc/"+app, o.soloBuild(runCfg{kind: polBaseline}, wl,
			func() trace.Stream { return o.streamFor(spec, wl) }))
		st := m.Core(0).Walker.Stats()
		hitRate := 0.0
		if st.PWCLookups > 0 {
			hitRate = float64(st.PWCHits) / float64(st.PWCLookups)
		}
		rows = append(rows, ExtPWCRow{App: app, RefsPerWalk: st.RefsPerWalk(), PWCHitRate: hitRate})
	}
	t := metrics.NewTable("App", "refs/walk", "PWC hit rate")
	for _, r := range rows {
		t.AddRowf(r.App, r.RefsPerWalk, r.PWCHitRate)
	}
	o.printf("Extension — page walk cache effectiveness (paper cites 1.1-1.4 refs/walk)\n\n%s\n", t.String())
	return rows, nil
}

// extWorkload adapts a SynthApp with an explicit BaseCPA.
type extWorkload struct {
	*workloads.SynthApp
	cpa float64
}

func (w extWorkload) BaseCPA() float64 { return w.cpa }
