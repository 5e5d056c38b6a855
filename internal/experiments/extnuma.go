package experiments

import (
	"pccsim/internal/metrics"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// ExtNUMARow is one placement policy's result.
type ExtNUMARow struct {
	Policy      string
	Cycles      float64
	Slowdown    float64 // vs bound placement
	RemoteShare float64
}

// ExtNUMA reproduces the rationale behind the paper's methodology choice of
// binding each process and its memory to one NUMA node: with Linux's
// default/interleaved placement, a large fraction of accesses pays the
// remote-node latency, adding run-to-run variance and overheads unrelated
// to huge page policy. Every other experiment in this repo runs in the
// bound (single-node-equivalent) configuration, exactly like the paper.
func ExtNUMA(o Options) ([]ExtNUMARow, error) {
	spec := o.variantSpecs("BFS")[0]
	wl, err := workloads.Build(spec)
	if err != nil {
		return nil, err
	}
	run := func(name string, pol vmm.NUMAPolicy, share float64) (vmm.RunResult, float64) {
		m, res := o.simulate("ext-numa/"+name, o.soloBuild(runCfg{kind: polBaseline}, wl,
			func() trace.Stream { return o.streamFor(spec, wl) },
			func(cfg *vmm.Config) {
				cfg.NUMA = vmm.DefaultNUMAConfig()
				cfg.NUMA.Policy = pol
				cfg.NUMA.LocalShare = share
			}))
		return res, m.RemoteShare(m.Procs()[0])
	}

	bound, boundRemote := run("bind", vmm.NUMABind, 1.0)
	inter, interRemote := run("interleave", vmm.NUMAInterleave, 1.0)
	spill, spillRemote := run("local-first", vmm.NUMALocalFirst, 0.5)

	rows := []ExtNUMARow{
		{Policy: "bind (paper methodology)", Cycles: bound.Cycles, Slowdown: 1, RemoteShare: boundRemote},
		{Policy: "interleave", Cycles: inter.Cycles,
			Slowdown: inter.Cycles / bound.Cycles, RemoteShare: interRemote},
		{Policy: "local-first, 50% pressure", Cycles: spill.Cycles,
			Slowdown: spill.Cycles / bound.Cycles, RemoteShare: spillRemote},
	}
	t := metrics.NewTable("Placement", "Cycles", "Slowdown vs bind", "Remote share")
	for _, r := range rows {
		t.AddRowf(r.Policy, r.Cycles, r.Slowdown, r.RemoteShare)
	}
	o.printf("Extension — NUMA placement (why the paper binds memory to one node)\n\n%s\n", t.String())
	return rows, nil
}
