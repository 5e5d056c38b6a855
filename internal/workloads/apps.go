package workloads

import (
	"math/rand"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// This file models the non-graph evaluation applications (PARSEC's canneal
// and dedup; SPEC CPU2017's mcf, omnetpp, xalancbmk). The original binaries
// and their Pin traces are unavailable offline, so each is a synthetic
// address-stream generator calibrated to the locality class the paper
// reports for it:
//
//	canneal    — simulated annealing over a large netlist: scattered
//	             reused elements; strongly TLB-sensitive.
//	omnetpp    — discrete event simulation: a hot event heap plus scattered
//	             module state; TLB-sensitive.
//	xalancbmk  — XSLT processing: DOM traversal with a hot symbol table;
//	             moderately TLB-sensitive.
//	dedup      — pipelined compression: mostly streaming with a compact
//	             hash index; barely TLB-sensitive (the paper reports
//	             negligible sensitivity).
//	mcf        — network simplex with the SPEC2017 cache-conscious layout:
//	             negligible TLB sensitivity.
//
// Each model is deterministic for a given seed and returns a fresh stream
// per call. Mixture components receive weight-proportional lengths so the
// blend holds for the whole run (no single-component tail).

// SynthApp describes one synthetic application model.
type SynthApp struct {
	name     string
	lay      *Layout
	accesses uint64
	// noInit suppresses the address-order initialization pass (lazily
	// populated workloads like Sparse never sweep their reservation).
	noInit    bool
	construct func(rng *rand.Rand, n uint64) trace.Stream
}

// Name returns the application name.
func (s *SynthApp) Name() string { return s.name }

// Footprint returns the simulated image size.
func (s *SynthApp) Footprint() uint64 { return s.lay.Footprint() }

// Ranges returns the simulated VMAs.
func (s *SynthApp) Ranges() []mem.Range { return s.lay.Ranges() }

// Stream returns a fresh access stream (deterministic per app): the
// address-order initialization pass (unless suppressed) followed by the
// app's calibrated mix.
func (s *SynthApp) Stream() trace.Stream {
	body := s.construct(randFor(s.name, 7), s.accesses)
	if s.noInit {
		return body
	}
	lay := s.lay
	init := NewStream(func(e *E) { EmitInit(e, lay.Arrays()) })
	return trace.Concat(init, body)
}

// SynthParams scales the synthetic applications.
type SynthParams struct {
	// SizeScale multiplies each app's default footprint (1.0 = defaults
	// below, chosen to sit in the same footprint-to-TLB-reach regime as
	// the paper's inputs while keeping page faults amortized over the
	// stream length).
	SizeScale float64
	// Accesses is each app's access count after its initialization pass,
	// which streams first: the stream is that pass plus Accesses long.
	Accesses uint64
}

// DefaultSynthParams returns the calibrated defaults.
func DefaultSynthParams() SynthParams {
	return SynthParams{SizeScale: 1.0, Accesses: 24_000_000}
}

func scaled(base uint64, scale float64) uint64 {
	v := uint64(float64(base) * scale)
	if v < uint64(mem.Page2M) {
		v = uint64(mem.Page2M)
	}
	return v &^ (uint64(mem.Page2M) - 1)
}

// weighted splits n accesses across components in proportion to weights, so
// every component ends at the same time under trace.Mix.
func weighted(n uint64, weights []float64) []uint64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([]uint64, len(weights))
	for i, w := range weights {
		out[i] = uint64(float64(n) * w / total)
	}
	return out
}

// sub derives an independent deterministic RNG from rng.
func sub(rng *rand.Rand) *rand.Rand { return rand.New(rand.NewSource(rng.Int63())) }

// Canneal builds the canneal model: scattered zipf-reused netlist elements
// (a large HUB population) with a pointer-chased core and a hot element
// list.
func Canneal(p SynthParams) *SynthApp {
	lay := NewLayout()
	netlist := lay.Alloc("netlist", scaled(320<<20, p.SizeScale)/64, 64)
	elems := lay.Alloc("elements", scaled(32<<20, p.SizeScale)/64, 64)
	return &SynthApp{
		name:     "canneal",
		lay:      lay,
		accesses: p.Accesses,
		construct: func(rng *rand.Rand, n uint64) trace.Stream {
			w := []float64{0.65, 0.1, 0.25}
			ns := weighted(n, w)
			chase := netlist.R.Len()
			if chase > 32<<20 {
				chase = 32 << 20
			}
			return trace.Mix(rng, w,
				trace.Zipf(netlist.R.Start, netlist.R.Len(), 1.3, ns[0], sub(rng)),
				trace.PointerChase(netlist.R.Start, chase, ns[1], sub(rng)),
				trace.HotCold(elems.R.Start, elems.R.Len(), 2<<20, 0.95, ns[2], sub(rng)),
			)
		},
	}
}

// Omnetpp builds the omnetpp model: a hot event heap with scattered module
// state reads.
func Omnetpp(p SynthParams) *SynthApp {
	lay := NewLayout()
	heap := lay.Alloc("event_heap", scaled(24<<20, p.SizeScale)/64, 64)
	modules := lay.Alloc("modules", scaled(160<<20, p.SizeScale)/64, 64)
	return &SynthApp{
		name:     "omnetpp",
		lay:      lay,
		accesses: p.Accesses,
		construct: func(rng *rand.Rand, n uint64) trace.Stream {
			w := []float64{0.5, 0.5}
			ns := weighted(n, w)
			return trace.Mix(rng, w,
				trace.HotCold(heap.R.Start, heap.R.Len(), 2<<20, 0.9, ns[0], sub(rng)),
				trace.Zipf(modules.R.Start, modules.R.Len(), 1.3, ns[1], sub(rng)),
			)
		},
	}
}

// Xalancbmk builds the xalancbmk model: DOM traversal (zipf over the tree)
// plus a very hot symbol table.
func Xalancbmk(p SynthParams) *SynthApp {
	lay := NewLayout()
	dom := lay.Alloc("dom", scaled(192<<20, p.SizeScale)/64, 64)
	symtab := lay.Alloc("symtab", scaled(8<<20, p.SizeScale)/64, 64)
	return &SynthApp{
		name:     "xalancbmk",
		lay:      lay,
		accesses: p.Accesses,
		construct: func(rng *rand.Rand, n uint64) trace.Stream {
			w := []float64{0.45, 0.55}
			ns := weighted(n, w)
			return trace.Mix(rng, w,
				trace.Zipf(dom.R.Start, dom.R.Len(), 1.35, ns[0], sub(rng)),
				trace.Sequential(symtab.R.Start, symtab.R.Len(), 64, ns[1]),
			)
		},
	}
}

// Dedup builds the dedup model: streaming chunking plus a compact hash
// index whose hot set fits the TLB reach — the paper's weak-sensitivity
// case.
func Dedup(p SynthParams) *SynthApp {
	lay := NewLayout()
	streamBuf := lay.Alloc("stream", scaled(320<<20, p.SizeScale)/64, 64)
	hashIdx := lay.Alloc("hash_index", scaled(32<<20, p.SizeScale)/64, 64)
	return &SynthApp{
		name:     "dedup",
		lay:      lay,
		accesses: p.Accesses,
		construct: func(rng *rand.Rand, n uint64) trace.Stream {
			w := []float64{0.92, 0.08}
			ns := weighted(n, w)
			return trace.Mix(rng, w,
				trace.Sequential(streamBuf.R.Start, streamBuf.R.Len(), 64, ns[0]),
				trace.HotCold(hashIdx.R.Start, hashIdx.R.Len(), 1<<20, 0.97, ns[1], sub(rng)),
			)
		},
	}
}

// Mcf builds the mcf model: the SPEC2017 cache-optimized network simplex —
// dense sequential sweeps over the arc array plus a small hot node set;
// negligible TLB sensitivity per the paper.
func Mcf(p SynthParams) *SynthApp {
	lay := NewLayout()
	arcs := lay.Alloc("arcs", scaled(320<<20, p.SizeScale)/64, 64)
	nodes := lay.Alloc("nodes", scaled(24<<20, p.SizeScale)/64, 64)
	return &SynthApp{
		name:     "mcf",
		lay:      lay,
		accesses: p.Accesses,
		construct: func(rng *rand.Rand, n uint64) trace.Stream {
			w := []float64{0.8, 0.2}
			ns := weighted(n, w)
			return trace.Mix(rng, w,
				trace.Sequential(arcs.R.Start, arcs.R.Len(), 64, ns[0]),
				trace.HotCold(nodes.R.Start, nodes.R.Len(), 1<<20, 0.97, ns[1], sub(rng)),
			)
		},
	}
}
