package vmm

import (
	"fmt"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
)

// blockReplayRun builds a 4-core machine with four jobs (two single-core
// jobs, a multi-core job with a duplicate core entry, and a single-core job
// on that job's core 3) under tick promotions, feeds them from materialized
// slices (the NextBatch path) or from the columnar BlockRecording (the
// zero-copy NextBlock path), and fingerprints the finished run. Streams
// have different lengths so completions interleave with ticks differently
// per job.
func blockReplayRun(t *testing.T, kind string) string {
	t.Helper()
	cfg := testConfig()
	cfg.Cores = 4
	cfg.FragFrac = 0.25
	cfg.PromotionInterval = 5_000
	m := NewMachine(cfg, &tickPromotePolicy{})

	var jobs []*Job
	sizes := []int{4, 2, 6, 3}
	cores := [][]int{{0}, {1}, {2, 3, 2}, {3}}
	rounds := []int{3, 7, 2, 5}
	for i := 0; i < 4; i++ {
		p := m.AddProcess(fmt.Sprintf("p%d", i), testVMA(sizes[i]), 10)
		acc := mixedStream(p.Ranges()[0], rounds[i])
		var st trace.Stream
		switch kind {
		case "slice":
			st = trace.Slice(acc)
		case "columnar":
			st = trace.RecordBlocks(trace.Slice(acc), 0).Replay()
		default:
			t.Fatalf("unknown stream kind %q", kind)
		}
		jobs = append(jobs, &Job{Proc: p, Stream: st, Cores: cores[i]})
	}
	res := m.Run(jobs...)
	return runFingerprint(m, res)
}

// TestBlockReplayRunEquivalence: feeding Run from a columnar replay — the
// zero-copy in-place path — must produce machine state bit-identical to
// materialized slices. This is the invariant that lets the experiments'
// trace cache replay streams without disturbing a golden.
func TestBlockReplayRunEquivalence(t *testing.T) {
	want := blockReplayRun(t, "slice")
	if got := blockReplayRun(t, "columnar"); got != want {
		t.Errorf("columnar replay diverges from the slice run:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestBlockReplayPartiallyConsumed: a columnar replay that was partially
// drained before Run (a restored snapshot fast-forwards streams this way)
// must continue from its cursor — mid-block — and still match a slice of the
// remaining accesses.
func TestBlockReplayPartiallyConsumed(t *testing.T) {
	const skip = trace.BlockAccesses + 700 // lands mid-block
	run := func(mk func(acc []trace.Access) trace.Stream) string {
		cfg := testConfig()
		cfg.Cores = 2
		cfg.PromotionInterval = 5_000
		m := NewMachine(cfg, &tickPromotePolicy{})
		var jobs []*Job
		for i := 0; i < 2; i++ {
			p := m.AddProcess(fmt.Sprintf("p%d", i), testVMA(4), 10)
			jobs = append(jobs, &Job{
				Proc:   p,
				Stream: mk(mixedStream(p.Ranges()[0], 3+i)),
				Cores:  []int{i},
			})
		}
		res := m.Run(jobs...)
		return runFingerprint(m, res)
	}
	want := run(func(acc []trace.Access) trace.Stream {
		return trace.Slice(acc[skip:])
	})
	got := run(func(acc []trace.Access) trace.Stream {
		rs := trace.RecordBlocks(trace.Slice(acc), 0).Replay()
		buf := make([]trace.Access, skip)
		if n := rs.NextBatch(buf); n != skip {
			t.Fatalf("fast-forward consumed %d accesses, want %d", n, skip)
		}
		return rs
	})
	if got != want {
		t.Errorf("partially-consumed columnar replay diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestSteadyStateRunAllocsColumnar is TestSteadyStateRunAllocs over the
// zero-copy block path: a columnar replay must not reintroduce per-access
// allocations (the replay object and its one decode buffer per run are
// amortized over the full stream).
func TestSteadyStateRunAllocsColumnar(t *testing.T) {
	oldAudit := TestForceAudit
	TestForceAudit = false
	defer func() { TestForceAudit = oldAudit }()

	cfg := testConfig()
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(8), 0)
	rec := trace.RecordBlocks(trace.Slice(mixedStream(p.Ranges()[0], 12)), 0)
	accesses := rec.Accesses()
	if accesses == 0 {
		t.Fatal("empty recording")
	}
	m.Run(&Job{Proc: p, Stream: rec.Replay()})

	avg := testing.AllocsPerRun(5, func() {
		m.Run(&Job{Proc: p, Stream: rec.Replay()})
	})
	perAccess := avg / float64(accesses)
	if perAccess > 0.001 {
		t.Errorf("steady-state Run over a block replay allocates %.4f objects/access (%.0f per run over %d accesses), want ~0",
			perAccess, avg, accesses)
	}
}

// BenchmarkRunStreamReplay is BenchmarkRunStream fed from a columnar
// recording instead of the live generator — the shape every cache-hit
// experiment run has. The acceptance bar for the columnar pipeline is that
// this stays within a few percent of (or beats) live BenchmarkRunStream:
// replaying must not cost more than generating. ns/op is ns per simulated
// access.
func BenchmarkRunStreamReplay(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 21, MovableFillRatio: 0.5}
	cfg.PromotionInterval = 100_000
	m := NewMachine(cfg, nil)
	p := m.AddProcess("bench", testVMA(64), 0)
	r := p.Ranges()[0]
	m.Run(&Job{Proc: p, Stream: trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), uint64(r.Len())>>12)})
	rec := trace.RecordBlocks(trace.Sequential(r.Start, uint64(r.Len()), 64, uint64(b.N)), 0)
	if rec == nil {
		b.Fatal("record failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(&Job{Proc: p, Stream: rec.Replay()})
}
