// Package obs is the simulator's observability layer: a lock-cheap
// counters/gauges registry the hardware and OS models publish into, a
// snapshot type with diff/merge/JSON/table export, a bounded per-simulation
// event trace, and a pprof bring-up helper for long grid runs.
//
// The registry exists because every subsystem (tlb, ptw, pcc, physmem, vmm,
// ospolicy) used to expose its own ad-hoc stats struct with its own field
// names; aggregating them across cores, runs and experiments meant bespoke
// glue per caller. Here every metric is a flat dotted name, snapshots are
// plain maps, and merging N simulations is one call. Simulation metrics are
// published as integral counters so that merged totals are byte-identical
// at any worker count — the determinism property the experiment harness
// guarantees for its reports.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. Safe for concurrent
// use; the hot path is one atomic add.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move both ways (queue depths,
// wall-clock seconds). Safe for concurrent use via CAS on the bit pattern.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max atomically raises the gauge to v if v is larger.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of counters and gauges. Registration
// (name lookup) takes a mutex; holding on to the returned handle makes the
// update path a single atomic, so publishers fetch handles once and then
// write lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A name registered as a counter must not also be used as a gauge.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Merge adds every value of s into the registry's counters. Values are
// rounded to integers (machine snapshots publish integral values), so
// merging is associative and the totals are identical at any worker count.
func (r *Registry) Merge(s Snapshot) {
	for name, v := range s {
		r.Counter(name).Add(uint64(math.Round(v)))
	}
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		s[name] = float64(c.Load())
	}
	for name, g := range r.gauges {
		s[name] = g.Load()
	}
	return s
}

// Snapshot is a point-in-time reading of a metric set: flat dotted names to
// values. Counters appear as their (integral) totals.
type Snapshot map[string]float64

// Add accumulates v under name.
func (s Snapshot) Add(name string, v float64) { s[name] += v }

// Merge sums o into s in place and returns s.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for k, v := range o {
		s[k] += v
	}
	return s
}

// Names returns the metric names in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// JSON renders the snapshot as an indented JSON object with sorted keys.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// A map[string]float64 can only fail on NaN/Inf; surface it
		// rather than hiding a corrupted metric.
		return []byte(fmt.Sprintf("{\"obs.marshal.error\": %q}", err.Error()))
	}
	return b
}
