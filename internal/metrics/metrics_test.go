package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Error("speedup 200/100 != 2")
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero denominator must yield 0")
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{2, 8})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v", got)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean must be 0")
	}
	// Non-positive entries are ignored.
	got = Geomean([]float64{4, 0, -3})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean with junk = %v", got)
	}
}

func TestGeomeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-9 && x < 1e9 && !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean(1,2,3) != 2")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("App", "Speedup")
	tb.AddRow("BFS", "1.25")
	tb.AddRowf("PR", 1.5)
	s := tb.String()
	if !strings.Contains(s, "BFS") || !strings.Contains(s, "1.500") {
		t.Errorf("table = %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("lines = %d", len(lines))
	}
	// Columns align: header and first row start at the same offset.
	if strings.Index(lines[0], "Speedup") != strings.Index(lines[2], "1.25") {
		t.Error("columns not aligned")
	}
}

func TestTableAddRowfTypes(t *testing.T) {
	tb := NewTable("a", "b", "c", "d")
	tb.AddRowf("x", 7, uint64(8), 3.14159)
	s := tb.String()
	for _, want := range []string{"x", "7", "8", "3.142"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Error("short row must render")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.25) != "25.00%" {
		t.Errorf("Pct = %q", Pct(0.25))
	}
}

func TestDefaultCostModelSanity(t *testing.T) {
	if BaseCPA <= 0 || WalkRef <= 0 || FaultBase <= 0 {
		t.Error("cost model must be positive")
	}
	// A full 4-level walk must cost more than an L2 TLB hit.
	if WalkBase+4*WalkRef <= L2TLBHit {
		t.Error("walk must cost more than an L2 hit")
	}
	// Direct compaction must dominate a huge fault's zeroing cost — the
	// latency-spike behaviour Linux exhibits under fragmentation.
	if DirectCompactStall <= FaultHugeZero {
		t.Error("direct compaction must dwarf zeroing")
	}
}

func TestCurveTypesUsable(t *testing.T) {
	c := Curve{Name: "PCC", Points: []CurvePoint{{BudgetPct: 4, Speedup: 1.2}}}
	if c.Points[0].Speedup != 1.2 || c.Name != "PCC" {
		t.Error("curve assembly broken")
	}
}
