package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (xs need not be sorted; it is not modified). An empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - 4j;
		// result = (data[j-1]*(4-delta) + data[j]*delta) / 4.
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a point-in-time reading of the Go runtime's cumulative
// CPU and allocation counters; the difference of two samples attributes GC
// CPU and heap allocation to the interval between them.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func sampleRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ss[0]), totalCPU: val(ss[1]), allocBytes: val(ss[2])}
}

// gcCPUFrac is the share of the process's CPU time spent in the garbage
// collector between a and b.
func gcCPUFrac(a, b runtimeSample) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// hostCPU names the host processor from /proc/cpuinfo ("unknown" elsewhere).
func hostCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
