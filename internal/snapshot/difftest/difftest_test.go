package difftest_test

import (
	"os"
	"path/filepath"
	"testing"

	"pccsim/internal/experiments"
	"pccsim/internal/obs"
	"pccsim/internal/snapshot/difftest"
)

// maxCut spans several promotion intervals of the quick configuration
// (100k accesses each) and exceeds the synthetic apps' 400k-access streams
// often enough that some runs checkpoint after completion.
const maxCut = 600_000

// TestResumeEquivalenceAcrossGoldenMatrix is the headline suite: every
// golden figure, at every workers × trace-cache combination the goldens
// matrix pins, must render byte-identically when every simulation inside it
// is checkpointed at a seeded random cut, serialized, restored into a fresh
// machine, and resumed. The reference bytes are the committed goldens
// themselves, so this composes with (rather than re-derives) the existing
// determinism pins. The seed varies per combination, scattering cut points
// differently each time.
func TestResumeEquivalenceAcrossGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full goldens matrix with checkpoint cycles takes minutes; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("byte-identical output comparison adds no race coverage; skipped under -race to stay within the package test timeout")
	}
	for _, fig := range []string{"fig1", "fig5", "fig6", "fig7", "figfrag", "figtenant"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			golden := filepath.Join("..", "..", "experiments", "testdata", fig+"_quick.golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with go test ./internal/experiments -run Golden -update): %v", err)
			}
			seed := int64(1)
			for _, w := range []int{1, 8} {
				for _, cache := range []int64{0, -1} {
					o := experiments.QuickOptions(nil)
					o.Workers = w
					o.TraceCache = cache
					if err := difftest.CheckFigure(fig, o, want, seed, maxCut); err != nil {
						t.Fatalf("%d workers, cache %d: %v", w, cache, err)
					}
					seed++
				}
			}
		})
	}
}

// TestResumeEquivalenceBeyondGoldens extends the suite to drivers the
// goldens do not pin, each chosen for state the goldens never cut through:
// fig9a runs two processes on two cores under a shared budget, ext-1g maps
// live 1GB pages, ext-phases demotes under memory pressure, and ext-numa
// places pages across NUMA nodes. The reference for each is the same figure
// run uncut with the same options. Each maxCut spans about one of the
// figure's simulations, so the cuts scatter across whole runs; for ext-1g
// the test also checks, against the uncut run's event trace, that some cut
// lands after the first 1GB promotion, so a live 1GB mapping travels
// through the snapshot.
func TestResumeEquivalenceBeyondGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("four figures with checkpoint cycles take seconds each; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("byte-identical output comparison adds no race coverage; skipped under -race to stay within the package test timeout")
	}
	const seeds = 2
	for _, tc := range []struct {
		fig    string
		maxCut uint64
		after  string // when set, some cut must land after the first event of this kind
	}{
		{"fig9a", 3_000_000, ""},
		{"ext-1g", 4_000_000, "promote1g"},
		{"ext-phases", 1_600_000, ""},
		{"ext-numa", 600_000, ""},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			o := experiments.QuickOptions(nil)
			sink := obs.NewSink(64 * obs.DefaultEventLogSize)
			o.EventSink = sink
			want, err := difftest.RunFigure(tc.fig, o)
			if err != nil {
				t.Fatal(err)
			}
			o.EventSink = nil
			for seed := int64(1); seed <= seeds; seed++ {
				if err := difftest.CheckFigure(tc.fig, o, want, seed, tc.maxCut); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if tc.after == "" {
				return
			}
			for _, e := range sink.Events() {
				if e.Kind != tc.after {
					continue
				}
				var cuts []uint64
				for seed := int64(1); seed <= seeds; seed++ {
					cut := difftest.Cutter(seed, tc.maxCut)(e.Run)
					if cut > e.At {
						return
					}
					cuts = append(cuts, cut)
				}
				t.Fatalf("%s: every cut %v lands before its first %s at access %d", e.Run, cuts, tc.after, e.At)
			}
			t.Fatalf("the uncut run traced no %s event", tc.after)
		})
	}
}

// TestCutterDeterministicAndScattered pins the Cutter contract the suite
// depends on: same (seed, name) → same cut, cuts within range, and
// different names/seeds actually scatter.
func TestCutterDeterministicAndScattered(t *testing.T) {
	c := difftest.Cutter(7, 1_000)
	if c("a") != c("a") {
		t.Error("cut for a fixed (seed, name) must be stable")
	}
	seen := map[uint64]bool{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		cut := c(name)
		if cut < 1 || cut > 1_000 {
			t.Fatalf("cut %d out of [1, 1000]", cut)
		}
		seen[cut] = true
	}
	if len(seen) < 4 {
		t.Errorf("cuts barely scatter across names: %d distinct of 8", len(seen))
	}
	if difftest.Cutter(8, 1_000)("a") == c("a") {
		t.Error("different seeds must move the cuts")
	}
	if difftest.Cutter(7, 0)("a") != 1 {
		t.Error("zero maxCut must degrade to cutting at access 1")
	}
}
