package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestGolden pins the -quick stdout of the headline figures, and of the
// goldenCells, byte-for-byte.
// Each figure runs at two worker counts, with the trace record/replay cache
// both enabled and disabled; all four runs must produce identical output —
// the determinism contracts the run pool and the trace cache document —
// before being compared against testdata/<fig>_quick.golden. Regenerate
// after an intentional output change with:
//
//	go test ./internal/experiments -run Golden -update
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figures take seconds each; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("byte-identical output comparison adds no race coverage over the grid tests; skipped under -race to stay within the package test timeout")
	}
	for _, name := range []string{"fig1", "fig5", "fig6", "fig7", "figfrag", "figtenant", "cell"} {
		t.Run(name, func(t *testing.T) {
			var got []byte
			for _, w := range []int{1, 8} {
				for _, cache := range []int64{0, -1} { // default budget, disabled
					var buf bytes.Buffer
					o := QuickOptions(&buf)
					o.Workers = w
					o.TraceCache = cache
					if err := runGolden(name, o); err != nil {
						t.Fatalf("%s at %d workers (cache %d): %v", name, w, cache, err)
					}
					if got == nil {
						got = buf.Bytes()
					} else if !bytes.Equal(got, buf.Bytes()) {
						t.Fatalf("%s output differs at %d workers, trace cache %d", name, w, cache)
					}
				}
			}
			if len(got) == 0 {
				t.Fatalf("%s produced no output", name)
			}

			golden := filepath.Join("testdata", name+"_quick.golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s -quick output drifted from %s.\ngot:\n%s\nwant:\n%s",
					name, golden, got, want)
			}
		})
	}
}

// goldenCells cover the cell mode's policies and machine options: pcc at
// several budgets, pcc-rr, hawkeye, linux under fragmentation, and one
// pressure, one NUMA and one 1GB cell.
var goldenCells = []Cell{
	{App: "PR", Policy: "pcc", Budgets: []float64{0, 4, 25}},
	{App: "PR", Policy: "pcc-rr", Budgets: []float64{25}},
	{App: "SSSP", Policy: "hawkeye"},
	{App: "BFS", Policy: "linux", Frag: 0.9},
	{App: "PR", Policy: "pcc", Frag: 0.9, Churn: 2048, Compact: 512, DemoteWM: 8},
	{App: "BFS", Policy: "base", NUMA: "local-first", Threads: 2},
	{App: "mcf", Policy: "pcc", Giga: true, Demote: true},
}

// runGolden runs one golden entry: a registered experiment, or "cell" for
// every goldenCells entry in turn.
func runGolden(name string, o Options) error {
	if name != "cell" {
		return Run(name, o)
	}
	for _, c := range goldenCells {
		c.Threads = max(c.Threads, 1)
		c.PCCEntries = 128
		if err := RunCell(o, c); err != nil {
			return err
		}
		o.printf("\n")
	}
	return nil
}
