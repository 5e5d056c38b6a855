package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"pccsim/internal/trace"
	"pccsim/internal/vmm"
)

// optionalInterfaces reports which of the optional policy interfaces the
// machine type-asserts p satisfies.
func optionalInterfaces(p vmm.Policy) [6]bool {
	_, a := p.(vmm.BaseFaultOnly)
	_, b := p.(vmm.PolicyAuditor)
	_, c := p.(vmm.StatefulPolicy)
	_, d := p.(vmm.MetricsPublisher)
	_, e := p.(vmm.ProcessReaper)
	_, f := p.(vmm.AddressSpaceReaper)
	return [6]bool{a, b, c, d, e, f}
}

func TestPolicyWrapperKeepsExactlyTheOptionalInterfaces(t *testing.T) {
	ct := &cellTrace{}
	for _, kind := range []string{"4KB", "ideal", "PCC", "HawkEye", "Linux"} {
		p, _ := newPolicy(kind)
		w := ct.policy(p)
		if got, want := optionalInterfaces(w), optionalInterfaces(p); got != want {
			t.Errorf("%s: wrapped policy satisfies %v, the policy itself %v", kind, got, want)
		}
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapped name %q, want %q", kind, w.Name(), p.Name())
		}
	}
}

func TestStreamWrapperIsBlockSourceExactlyWhenInnerIs(t *testing.T) {
	const n = 10_000
	live := func() trace.Stream { return trace.Sequential(0x4000_0000, 1<<20, 64, n) }
	for _, tc := range []struct {
		name  string
		inner trace.Stream
	}{
		{"live", live()},
		{"replay", trace.RecordBlocks(live(), 0).Replay()},
	} {
		ct := &cellTrace{}
		w := ct.stream(tc.inner)
		_, innerBlocks := tc.inner.(trace.BlockSource)
		if _, outerBlocks := w.(trace.BlockSource); outerBlocks != innerBlocks {
			t.Errorf("%s: wrapper is a BlockSource: %v, inner: %v", tc.name, outerBlocks, innerBlocks)
		}
		buf := make([]trace.Access, 1000)
		got := 0
		for k := trace.Batched(w).NextBatch(buf); k > 0; k = trace.Batched(w).NextBatch(buf) {
			got += k
		}
		if got != n || ct.live.items.Load()+ct.replay.items.Load() != n {
			t.Errorf("%s: drained %d accesses, timed %d, want %d", tc.name, got,
				ct.live.items.Load()+ct.replay.items.Load(), n)
		}
	}
}

// TestTracedRunComputesTheSameResults runs a miniature of every workload
// untraced and traced: every item must succeed and produce the same digest.
func TestTracedRunComputesTheSameResults(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			s, err := def.setup(1, true, &setupStats{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			untraced := s.runFigure(false, nil)
			traced := s.runFigure(true, newSpanLog())
			if err := s.close(); err != nil {
				t.Fatal(err)
			}
			if len(untraced.items) == 0 || len(traced.items) != len(untraced.items) {
				t.Fatalf("items: untraced %d, traced %d", len(untraced.items), len(traced.items))
			}
			c := newChecker(nil)
			c.check(untraced.items)
			c.check(traced.items)
			if c.failed != 0 {
				t.Fatalf("failed_frac %d/%d: %v", c.failed, c.attempted, c.problems)
			}
		})
	}
}

// TestRunPrintsEveryBenchmarkMetric checks the result line of both modes
// against the metric lists BENCHMARK.json declares.
func TestRunPrintsEveryBenchmarkMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, mode := range []struct {
		trace string
		want  []declared
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"-workload", "churn-pressure", "-tiny", "-seconds", "0.01", "-trace", mode.trace, "-spans", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("-trace %s: exit %d: %s", mode.trace, code, errOut.String())
		}
		var r struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			t.Fatalf("-trace %s: result line: %v", mode.trace, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("-trace %s: correct=%v failed=%d attempted=%d", mode.trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(mode.want) {
			t.Errorf("-trace %s: %d metrics printed, BENCHMARK.json declares %d", mode.trace, len(r.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("-trace %s: metric %s printed=%v unit %q, want %q", mode.trace, m.Name, ok, got.Unit, m.Unit)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
