package experiments

import (
	"pccsim/internal/metrics"
	"pccsim/internal/workloads"
)

// ExtCharRow is one application's reuse-class breakdown.
type ExtCharRow struct {
	App string
	// Shares of pages and accesses per class, indexed by trace.PageClass.
	PageShare   [3]float64
	AccessShare [3]float64
}

// ExtChar extends Fig. 2's characterization to every evaluation
// application: the per-class page and access shares explain each app's
// position in the utility curves (a large HUB access share predicts high
// PCC upside; a dominant TLB-friendly share predicts indifference).
func ExtChar(o Options) ([]ExtCharRow, error) {
	var rows []ExtCharRow
	for _, app := range AppOrder(o) {
		spec := o.variantSpecs(app)[0]
		spec.SkipInit = true
		wl, err := workloads.Build(spec)
		if err != nil {
			return nil, err
		}
		sum := profileReuse(wl).sum
		row := ExtCharRow{App: app}
		tp, ta := float64(sum.TotalPages()), float64(sum.TotalAccesses())
		for c := 0; c < 3; c++ {
			if tp > 0 {
				row.PageShare[c] = float64(sum.Pages[c]) / tp
			}
			if ta > 0 {
				row.AccessShare[c] = float64(sum.Accesses[c]) / ta
			}
		}
		rows = append(rows, row)
	}

	t := metrics.NewTable("App",
		"friendly pages", "HUB pages", "low-reuse pages",
		"friendly acc", "HUB acc", "low-reuse acc")
	for _, r := range rows {
		t.AddRow(r.App,
			metrics.Pct(r.PageShare[0]), metrics.Pct(r.PageShare[1]), metrics.Pct(r.PageShare[2]),
			metrics.Pct(r.AccessShare[0]), metrics.Pct(r.AccessShare[1]), metrics.Pct(r.AccessShare[2]))
	}
	o.printf("Extension — reuse-class characterization across all applications (Fig. 2 generalized)\n\n%s\n", t.String())
	return rows, nil
}
