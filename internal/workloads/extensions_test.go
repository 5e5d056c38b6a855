package workloads

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

func TestPhasedAlternatesHalves(t *testing.T) {
	p := PhasedParams{HalfBytes: 4 << 20, AccessesPerPhase: 5000, Phases: 2}
	app := Phased(p)
	if app.Name() != "phased" {
		t.Error("name")
	}
	ranges := app.Ranges()
	if len(ranges) != 2 {
		t.Fatalf("halves = %d", len(ranges))
	}
	s := app.Stream()
	// Skip the init pass (writes), then partition the remaining accesses
	// into phase windows.
	var body []trace.Access
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if !a.Write {
			body = append(body, a)
		}
	}
	if uint64(len(body)) != 2*p.AccessesPerPhase {
		t.Fatalf("body accesses = %d", len(body))
	}
	inHalf := func(a trace.Access, h int) bool { return ranges[h].Contains(a.Addr) }
	for i, a := range body {
		want := 0
		if uint64(i) >= p.AccessesPerPhase {
			want = 1
		}
		if !inHalf(a, want) {
			t.Fatalf("access %d in wrong half", i)
		}
	}
}

func TestPhasedMinimumPhases(t *testing.T) {
	app := Phased(PhasedParams{HalfBytes: 2 << 20, AccessesPerPhase: 10, Phases: 0})
	n := count(app.Stream())
	if n == 0 {
		t.Fatal("empty stream")
	}
}

func TestBigTableLayoutIs1GAligned(t *testing.T) {
	app := BigTable(BigTableParams{TableBytes: 2 << 30, Accesses: 100, Spread: true})
	r := app.Ranges()[0]
	if !mem.Aligned(r.Start, mem.Page1G) {
		t.Errorf("table base %#x not 1GB aligned", uint64(r.Start))
	}
	if app.Footprint() < 2<<30 {
		t.Errorf("footprint = %d", app.Footprint())
	}
}

func TestBigTableSpreadVsConcentrated(t *testing.T) {
	// Fraction of (non-init) accesses landing in the 8 hottest 2MB
	// regions: the concentrated variant focuses there, the spread variant
	// distributes uniformly across ~512 regions.
	top8Share := func(spread bool) float64 {
		app := BigTable(BigTableParams{TableBytes: 1 << 30, Accesses: 20000, Spread: spread})
		s := app.Stream()
		counts := map[mem.PageNum]int{}
		total := 0
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.Write { // init pass
				continue
			}
			counts[mem.PageNumber(a.Addr, mem.Page2M)]++
			total++
		}
		best := make([]int, 0, len(counts))
		for _, c := range counts {
			best = append(best, c)
		}
		top := 0
		for k := 0; k < 8; k++ {
			maxI, maxV := -1, -1
			for i, c := range best {
				if c > maxV {
					maxI, maxV = i, c
				}
			}
			if maxI < 0 {
				break
			}
			top += maxV
			best[maxI] = -1
		}
		return float64(top) / float64(total)
	}
	sp, conc := top8Share(true), top8Share(false)
	if conc < 0.8 {
		t.Errorf("concentrated top-8 share = %.2f, want >= 0.8", conc)
	}
	if sp > 0.2 {
		t.Errorf("spread top-8 share = %.2f, want <= 0.2", sp)
	}
}
