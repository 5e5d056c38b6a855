package experiments

import (
	"fmt"

	"pccsim/internal/metrics"
	"pccsim/internal/plot"
	"pccsim/internal/workloads"
)

// FigFragRow is one grid point of the fragmentation sweep: one (churn rate,
// compaction budget) pair evaluated under each OS policy. Misses are L1 TLB
// miss rates in percent; Advantage is the PCC's miss reduction over the best
// competitor in percentage points.
type FigFragRow struct {
	ChurnFrames   int // churn allocations per tick (frees are half of this)
	CompactBudget int // kcompactd migration budget, frames per tick
	HawkEyeMiss   float64
	LinuxMiss     float64
	PCCMiss       float64
	Advantage     float64
	HawkEye       float64 // speedups over the undisturbed 4KB baseline
	LinuxTHP      float64
	PCC           float64
}

// FigFrag is the dynamic-pressure extension of Figure 7: instead of a
// memory pool fragmented once at boot, a churn source allocates and frees
// frames every policy tick (a slice of them pinned) while a kcompactd-style
// daemon compacts movable blocks under a migration budget. Huge-allocable
// blocks become a shrinking, shifting resource, so the quality of promotion
// candidate selection matters more the faster memory churns: policies that
// spend scarce blocks on cold regions (greedy Linux THP, coarse HawkEye
// bins) fall further behind the PCC's walk-frequency-ranked choices as the
// churn rate rises.
func FigFrag(o Options) ([]FigFragRow, error) {
	// One graph kernel, one dataset, single sorting: the sweep's contrast is
	// policy × pressure, not workload breadth.
	o.Datasets = []workloads.GraphDataset{workloads.DatasetKron}
	o.BothSortings = false
	const app = "PR"
	const frag = 0.9 // fig7's regime at boot; churn does the rest

	// Make huge-allocable blocks scarce relative to the footprint — with the
	// default pool every policy covers the workload trivially and selection
	// quality is invisible — and halve the tick so pressure acts many times
	// over the run. The free-block watermark sits above the post-boot free
	// count, so pressure demotion continuously rotates huge pages: the
	// policies' ongoing RE-promotion choices, under whatever capacity churn
	// has left, decide the outcome. Churn intensities and the daemon budget
	// scale with the pool so the sweep stresses the same regime at every
	// Options size.
	o.PhysBytes /= 16
	o.Interval = max(o.Interval/2, 1)
	totalFrames := int(o.PhysBytes / 4096)
	figFragChurn := []int{0, totalFrames / 16, totalFrames / 4}
	figFragBudgets := []int{0, totalFrames / 16}
	watermark := totalFrames / 512 / 4 // a quarter of the pool's blocks

	mkCfg := func(kind policyKind, churn, budget int) runCfg {
		return runCfg{kind: kind, frag: frag, demoteWM: watermark, churnAlloc: churn, compactBudget: budget}
	}

	var cells []cell
	for _, budget := range figFragBudgets {
		for _, churn := range figFragChurn {
			cells = append(cells,
				cell{app, mkCfg(polHawkEye, churn, budget)},
				cell{app, mkCfg(polLinux, churn, budget)},
				cell{app, mkCfg(polPCC, churn, budget)})
		}
	}
	res, err := o.runCells(cells)
	if err != nil {
		return nil, err
	}

	var rows []FigFragRow
	i := 0
	for _, budget := range figFragBudgets {
		for _, churn := range figFragChurn {
			he, lx, pc := res[i], res[i+1], res[i+2]
			i += 3
			best := he.L1Miss
			if lx.L1Miss < best {
				best = lx.L1Miss
			}
			rows = append(rows, FigFragRow{
				ChurnFrames: churn, CompactBudget: budget,
				HawkEyeMiss: 100 * he.L1Miss, LinuxMiss: 100 * lx.L1Miss,
				PCCMiss: 100 * pc.L1Miss, Advantage: 100 * (best - pc.L1Miss),
				HawkEye: he.Speedup, LinuxTHP: lx.Speedup, PCC: pc.Speedup,
			})
		}
	}

	t := metrics.NewTable("Churn", "Compact", "HawkEye miss%", "Linux miss%",
		"PCC miss%", "PCC adv (pp)", "HawkEye spd", "Linux spd", "PCC spd")
	for _, r := range rows {
		t.AddRowf(fmt.Sprintf("%d", r.ChurnFrames), r.CompactBudget,
			r.HawkEyeMiss, r.LinuxMiss, r.PCCMiss, r.Advantage,
			r.HawkEye, r.LinuxTHP, r.PCC)
	}
	o.printf("Fragmentation sweep — %s under dynamic churn + kcompactd (%.0f%% boot fragmentation)\n\n%s",
		app, 100*frag, t.String())
	for _, budget := range figFragBudgets {
		o.printf("\ncompact budget %d: PCC miss advantage by churn:", budget)
		for _, r := range rows {
			if r.CompactBudget == budget {
				o.printf("  %d→%.3fpp", r.ChurnFrames, r.Advantage)
			}
		}
	}
	o.printf("\n")

	chart := plot.LineChart{
		Title:  "FigFrag — PCC miss advantage vs churn rate",
		XLabel: "churn allocations per tick",
		YLabel: "PCC L1-miss advantage (pp)",
	}
	for _, budget := range figFragBudgets {
		l := plot.Line{Name: fmt.Sprintf("compact=%d", budget)}
		for _, r := range rows {
			if r.CompactBudget == budget {
				l.X = append(l.X, float64(r.ChurnFrames))
				l.Y = append(l.Y, r.Advantage)
			}
		}
		chart.Lines = append(chart.Lines, l)
	}
	o.savePlot("figfrag", chart.SVG())
	return rows, nil
}
