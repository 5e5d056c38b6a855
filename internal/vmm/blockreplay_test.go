package vmm

import (
	"fmt"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
)

// blockReplayRun is shardTestRun with the stream source parameterized: the
// same four-job, three-group workload fed from materialized slices (the
// NextBatch path) or from the columnar BlockRecording (the zero-copy
// NextBlock path serially, NextBatch decoding into the coordinator's pool
// buffers under shards).
func blockReplayRun(t *testing.T, shards int, kind string) string {
	t.Helper()
	cfg := testConfig()
	cfg.Cores = 4
	cfg.Shards = shards
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
	return shardFingerprint(m, res)
}

// TestBlockReplayRunEquivalence: feeding Run from a columnar replay — the
// zero-copy in-place path, and block decodes into pool buffers under
// shards — must produce machine state bit-identical to materialized slices,
// at every shard count. This is the invariant that lets the experiments' trace cache replay
// streams without disturbing a golden.
func TestBlockReplayRunEquivalence(t *testing.T) {
	want := blockReplayRun(t, 1, "slice")
	for _, shards := range []int{1, 4} {
		for _, kind := range []string{"slice", "columnar"} {
			if got := blockReplayRun(t, shards, kind); got != want {
				t.Errorf("shards=%d kind=%s diverges from serial slice run:\nwant:\n%s\ngot:\n%s",
					shards, kind, want, got)
			}
		}
	}
}

// TestBlockReplayPartiallyConsumed: a columnar replay that was partially
// drained before Run (a restored snapshot fast-forwards streams this way)
// must continue from its cursor — mid-block — and still match a slice of the
// remaining accesses, serially and under shards.
func TestBlockReplayPartiallyConsumed(t *testing.T) {
	const skip = trace.BlockAccesses + 700 // lands mid-block
	run := func(shards int, mk func(acc []trace.Access) trace.Stream) string {
		cfg := testConfig()
		cfg.Cores = 2
		cfg.Shards = shards
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
		return shardFingerprint(m, res)
	}
	want := run(1, func(acc []trace.Access) trace.Stream {
		return trace.Slice(acc[skip:])
	})
	for _, shards := range []int{1, 2} {
		got := run(shards, func(acc []trace.Access) trace.Stream {
			rs := trace.RecordBlocks(trace.Slice(acc), 0).Replay()
			buf := make([]trace.Access, skip)
			if n := rs.NextBatch(buf); n != skip {
				t.Fatalf("fast-forward consumed %d accesses, want %d", n, skip)
			}
			return rs
		})
		if got != want {
			t.Errorf("shards=%d: partially-consumed columnar replay diverges:\nwant:\n%s\ngot:\n%s",
				shards, want, got)
		}
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
