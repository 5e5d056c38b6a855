package experiments

import (
	"pccsim/internal/metrics"
	"pccsim/internal/plot"
	"pccsim/internal/trace"
	"pccsim/internal/workloads"
)

// Fig2Result is the Fig. 2 characterization: per-page reuse distances at
// 4KB vs 2MB granularity for BFS on the Kronecker network, classified into
// the three access categories.
type Fig2Result struct {
	Summary trace.Summary
	// Sample holds a bounded number of per-page points (page, dist4K,
	// dist2M, class) — the scatterplot's data.
	Sample []trace.PageReuse
	// TotalAccesses analyzed.
	TotalAccesses uint64
}

// reuseClasses lists the Fig. 2 access classes in report order.
var reuseClasses = []trace.PageClass{trace.TLBFriendly, trace.HUB, trace.LowReuse}

// reuseProfile is the Fig. 2 reuse analysis of one stream: every page's
// reuse distances and class, in page order, their per-class totals, and the
// accesses analyzed.
type reuseProfile struct {
	pages    []trace.PageReuse
	sum      trace.Summary
	accesses uint64
}

// profileReuse runs the reuse analysis over a fresh stream of wl. Callers
// build wl with SkipInit: for a graph kernel the characterization then
// measures its steady-state access pattern, as the one-shot load pass
// would add a single enormous gap to every page's reuse average and drown
// the signal. The synthetic apps ignore SkipInit, so their profiles include
// their initialization pass.
func profileReuse(wl workloads.Workload) reuseProfile {
	an := trace.NewReuseAnalyzer()
	s := wl.Stream()
	defer workloads.CloseStream(s)
	n := an.Drain(s)
	pages := an.Results()
	return reuseProfile{pages: pages, sum: trace.Summarize(pages), accesses: n}
}

// Fig2 reproduces the Figure 2 characterization: run BFS on the Kronecker
// network, measure every 4KB page's reuse distance and its 2MB region's
// reuse distance, and classify pages into TLB-friendly / HUB / low-reuse.
func Fig2(o Options, maxSample int) (*Fig2Result, error) {
	wl, err := workloads.Build(workloads.Spec{
		Name: "BFS", Dataset: workloads.DatasetKron, Scale: o.Scale, SkipInit: true,
	})
	if err != nil {
		return nil, err
	}
	prof := profileReuse(wl)
	results, sum := prof.pages, prof.sum

	if maxSample <= 0 {
		maxSample = 2000
	}
	stride := len(results)/maxSample + 1
	var sample []trace.PageReuse
	for i := 0; i < len(results); i += stride {
		sample = append(sample, results[i])
	}

	t := metrics.NewTable("Class", "Pages", "Pages%", "Accesses", "Accesses%")
	for _, c := range reuseClasses {
		t.AddRowf(c.String(),
			sum.Pages[c],
			metrics.Pct(float64(sum.Pages[c])/float64(sum.TotalPages())),
			sum.Accesses[c],
			metrics.Pct(float64(sum.Accesses[c])/float64(sum.TotalAccesses())),
		)
	}
	o.printf("Figure 2 — page reuse-distance characterization (BFS, Kronecker %d)\n", o.Scale)
	o.printf("reuse-distance threshold (L2 TLB entries): %d\n\n%s\n", trace.ClassifyThreshold, t.String())
	o.printf("scatter sample: %d points (of %d pages); columns: 4KB-page reuse vs 2MB-region reuse\n",
		len(sample), len(results))

	if o.PlotDir != "" {
		chart := plot.ScatterChart{
			Title:     "Fig 2 — page reuse distance, 4KB vs 2MB (BFS)",
			XLabel:    "4KB page reuse distance",
			YLabel:    "2MB region reuse distance",
			Threshold: trace.ClassifyThreshold,
		}
		for _, cls := range reuseClasses {
			sc := plot.ScatterClass{Name: cls.String()}
			for _, pr := range sample {
				if pr.Class == cls {
					sc.X = append(sc.X, pr.Dist4K)
					sc.Y = append(sc.Y, pr.Dist2M)
				}
			}
			chart.Classes = append(chart.Classes, sc)
		}
		o.savePlot("fig2_scatter", chart.SVG())
	}
	return &Fig2Result{Summary: sum, Sample: sample, TotalAccesses: prof.accesses}, nil
}
