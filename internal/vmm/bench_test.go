package vmm

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
)

// stepPattern builds a deterministic hot/cold access mix over r: a 2MB hot
// prefix revisited at 4KB stride (L1/L2 hits) interleaved with a sparse sweep
// of the whole range (capacity misses and walks) — the graph-workload regime
// the per-access hot path spends its time in.
func stepPattern(r mem.Range) []trace.Access {
	var acc []trace.Access
	hotEnd := r.Start + mem.VirtAddr(2<<20)
	for rep := 0; rep < 4; rep++ {
		for a := r.Start; a < hotEnd; a += mem.VirtAddr(mem.Page4K) {
			acc = append(acc, trace.Access{Addr: a})
		}
		for a := r.Start; a < r.End; a += 1 << 16 {
			acc = append(acc, trace.Access{Addr: a})
		}
	}
	return acc
}

// stepPattern2M round-robins across all 2MB regions of r with a rotating
// in-region offset: with more regions than L1-2M entries every access misses
// L1 and hits L2 — the path that records huge last-use on each access.
func stepPattern2M(r mem.Range) []trace.Access {
	regions := uint64(r.Len()) >> 21
	var acc []trace.Access
	for rep := uint64(0); rep < 8; rep++ {
		off := mem.VirtAddr(rep * uint64(mem.Page4K) * 7 % uint64(mem.Page2M))
		for i := uint64(0); i < regions; i++ {
			acc = append(acc, trace.Access{Addr: r.Start + mem.VirtAddr(i<<21) + off})
		}
	}
	return acc
}

// stepConfig is the machine the Step benchmarks run on.
func stepConfig() Config {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 21, MovableFillRatio: 0.5}
	return cfg
}

// benchmarkStep measures steady-state per-access simulation cost through
// Machine.Run (vmaOf, mapping-state lookup, TLB hierarchy, walker, PCC).
// With promote set every 2MB region is huge-mapped first, exercising the
// 2MB-path bookkeeping (huge last-use tracking) on every L2 hit and walk.
// On a multi-core config the job runs on every core, its thread switching
// every 64 accesses.
func benchmarkStep(b *testing.B, cfg Config, promote bool) {
	m := NewMachine(cfg, nil)
	p := m.AddProcess("bench", testVMA(64), 0)
	r := p.Ranges()[0]
	acc := stepPattern(r)
	if promote {
		acc = stepPattern2M(r)
	}
	cores := make([]int, m.Config().Cores)
	for i := range cores {
		cores[i] = i
	}
	for i := range acc {
		acc[i].Thread = i / 64
	}
	// Warm once so the timed loop measures translation, not first-touch
	// faults.
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc), Cores: cores})
	if promote {
		for a := r.Start; a < r.End; a += mem.VirtAddr(mem.Page2M) {
			if err := m.Promote2M(p, a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(acc) {
		m.Run(&Job{Proc: p, Stream: trace.Slice(acc), Cores: cores})
	}
}

// BenchmarkStep is the 4KB-mapped hot path: ns/op is ns per simulated access.
func BenchmarkStep(b *testing.B) { benchmarkStep(b, stepConfig(), false) }

// BenchmarkStep2M is the same pattern with every region promoted to 2MB.
func BenchmarkStep2M(b *testing.B) { benchmarkStep(b, stepConfig(), true) }

// BenchmarkStepNUMA is BenchmarkStep on a 2-node machine with interleaved
// placement: full steps look up each region's node and charge the remote
// penalty on half of them.
func BenchmarkStepNUMA(b *testing.B) {
	cfg := stepConfig()
	cfg.NUMA = DefaultNUMAConfig()
	cfg.NUMA.Policy = NUMAInterleave
	benchmarkStep(b, cfg, false)
}

// BenchmarkStepMultiCore is BenchmarkStep on a two-core job: every segment
// splits into per-core runs of 64 accesses, each through the segment
// kernel.
func BenchmarkStepMultiCore(b *testing.B) {
	cfg := stepConfig()
	cfg.Cores = 2
	benchmarkStep(b, cfg, false)
}

// BenchmarkRunStream measures the end-to-end Run pipeline — batch draining,
// tick segmentation, and the per-access step — fed by a live generator
// rather than a materialized slice, the shape every experiment run has.
// ns/op is ns per simulated access.
func BenchmarkRunStream(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 21, MovableFillRatio: 0.5}
	cfg.PromotionInterval = 100_000
	m := NewMachine(cfg, nil)
	p := m.AddProcess("bench", testVMA(64), 0)
	r := p.Ranges()[0]
	// Warm first-touch faults so the timed run measures translation.
	m.Run(&Job{Proc: p, Stream: trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), uint64(r.Len())>>12)})
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(&Job{Proc: p, Stream: trace.Sequential(r.Start, uint64(r.Len()), 64, uint64(b.N))})
}

// BenchmarkRunMultiJob measures wall clock for eight independent
// single-core jobs (eight processes, eight cores) round-robined by the
// scheduler. ns/op is ns per simulated access across all jobs.
func BenchmarkRunMultiJob(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 1024 << 21, MovableFillRatio: 0.5}
	cfg.Cores = 8
	cfg.PromotionInterval = 500_000
	m := NewMachine(cfg, nil)
	perJob := uint64(b.N/8) + 1
	var jobs []*Job
	var warm []*Job
	for i := 0; i < 8; i++ {
		p := m.AddProcess("bench", testVMA(16), 0)
		r := p.Ranges()[0]
		warm = append(warm, &Job{
			Proc:   p,
			Stream: trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), uint64(r.Len())>>12),
			Cores:  []int{i},
		})
		jobs = append(jobs, &Job{
			Proc:   p,
			Stream: trace.Sequential(r.Start, uint64(r.Len()), 64, perJob),
			Cores:  []int{i},
		})
	}
	// Warm first-touch faults so the timed run measures execution.
	m.Run(warm...)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(jobs...)
}

// BenchmarkVmaOf measures the VMA lookup alone on a 24-VMA address space with
// run-based locality (the pattern real streams exhibit: long runs inside one
// VMA, occasional jumps).
func BenchmarkVmaOf(b *testing.B) {
	var ranges []mem.Range
	start := mem.VirtAddr(1 << 30)
	for i := 0; i < 24; i++ {
		ranges = append(ranges, mem.Range{Start: start, End: start + 4<<20})
		start += 8 << 20
	}
	p := newProcess(0, "bench", ranges, 0)
	var addrs []mem.VirtAddr
	for i, r := range ranges {
		for a := r.Start; a < r.Start+64<<12; a += mem.VirtAddr(mem.Page4K) {
			addrs = append(addrs, a)
		}
		// One cross-VMA jump per run.
		addrs = append(addrs, ranges[(i+13)%len(ranges)].Start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.vmaOf(addrs[i%len(addrs)]) == nil {
			b.Fatal("address outside VMAs")
		}
	}
}

// BenchmarkDemote2M times splitting one 2MB mapping back into 4KB pages:
// unmap, remap and shootdown. Each iteration first re-promotes the region
// with the timer stopped, so every remap takes back the PTE node the
// collapse returned to the free list.
func BenchmarkDemote2M(b *testing.B) {
	m := NewMachine(stepConfig(), nil)
	p := m.AddProcess("bench", testVMA(4), 0)
	base := p.Ranges()[0].Start
	m.Run(&Job{Proc: p, Stream: seqStream(mem.Range{Start: base, End: base + mem.VirtAddr(mem.Page2M)}, 1)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.Promote2M(p, base); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Demote2M(p, base); err != nil {
			b.Fatal(err)
		}
	}
}
