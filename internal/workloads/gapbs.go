package workloads

import (
	"fmt"
	"math/rand"

	"pccsim/internal/graph"
	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// GraphParams configures the graph kernels' memory image.
type GraphParams struct {
	// Threads is the number of simulated hardware threads the kernel is
	// partitioned across (1 for single-thread experiments).
	Threads int
	// VertexStride inflates the per-vertex property record (dist, parent,
	// rank) to this many virtual bytes, modelling the original C
	// implementation's property arrays without allocating them.
	VertexStride uint64
	// EdgeStride inflates per-edge records (neighbor id, or id+weight for
	// SSSP).
	EdgeStride uint64
	// PRIters is the number of PageRank iterations.
	PRIters int
	// SSSPRounds caps SSSP relaxation rounds.
	SSSPRounds int
	// SkipInit omits the address-order initialization pass from the
	// stream. Performance experiments keep it (real runs load their data
	// before computing); the reuse-distance characterization skips it,
	// since a single cold pass adds one enormous gap to every page's
	// reuse average and masks the steady-state pattern.
	SkipInit bool
}

// DefaultGraphParams returns the calibrated defaults. Vertex records are
// 32B; edge records 16B (32B for SSSP's weighted edges, set by the kernel).
// With the default scale-20 graphs this puts the irregularly-accessed
// vertex property arrays at ~5-10% of the total footprint — the paper's
// regime, where promoting a few percent of the footprint captures the HUBs.
func DefaultGraphParams() GraphParams {
	return GraphParams{Threads: 1, VertexStride: 32, EdgeStride: 16, PRIters: 3, SSSPRounds: 6}
}

// Kernel identifies a graph kernel; each lays out only the arrays it
// touches, so footprints (the budget denominator) reflect live data.
type Kernel string

const (
	// KernelBFS is breadth-first search (direction: push).
	KernelBFS Kernel = "BFS"
	// KernelSSSP is single-source shortest paths (Bellman-Ford frontier).
	KernelSSSP Kernel = "SSSP"
	// KernelPR is pull-style PageRank.
	KernelPR Kernel = "PR"
)

// GraphWorkload bundles a graph with the simulated memory image of one
// kernel over it.
type GraphWorkload struct {
	G      *graph.CSR
	Params GraphParams
	Kernel Kernel
	Lay    *Layout

	// Arrays present depend on the kernel; unused ones are zero Arrays.
	outIndex Array // N+1 x 8B (BFS/SSSP adjacency bounds; PR degree reads)
	outNeigh Array // M x EdgeStride (BFS/SSSP)
	inIndex  Array // N+1 x 8B (PR)
	inNeigh  Array // M x EdgeStride (PR)
	vprop    Array // N x VertexStride (parent / dist / rank_prev)
	vprop2   Array // N x VertexStride (rank_next; PR only)
	frontier Array // N x 8B worklist (BFS/SSSP)
}

// NewGraphWorkload lays out the memory image of kernel k over g.
func NewGraphWorkload(g *graph.CSR, p GraphParams, k Kernel) *GraphWorkload {
	if p.Threads <= 0 {
		p.Threads = 1
	}
	def := DefaultGraphParams()
	if p.VertexStride == 0 {
		p.VertexStride = def.VertexStride
	}
	if p.EdgeStride == 0 {
		p.EdgeStride = def.EdgeStride
	}
	if p.PRIters <= 0 {
		p.PRIters = def.PRIters
	}
	if p.SSSPRounds <= 0 {
		p.SSSPRounds = def.SSSPRounds
	}
	w := &GraphWorkload{G: g, Params: p, Kernel: k, Lay: NewLayout()}
	n := uint64(g.N)
	m := g.NumEdges()
	switch k {
	case KernelBFS:
		w.outIndex = w.Lay.Alloc("out_index", n+1, 8)
		w.outNeigh = w.Lay.Alloc("out_neigh", m, p.EdgeStride)
		w.vprop = w.Lay.Alloc("parent", n, p.VertexStride)
		w.frontier = w.Lay.Alloc("frontier", n, 8)
	case KernelSSSP:
		w.outIndex = w.Lay.Alloc("out_index", n+1, 8)
		// Weighted edge records: neighbor id + weight, twice the BFS
		// record, giving SSSP the paper's ~2x BFS footprint.
		w.outNeigh = w.Lay.Alloc("out_neigh_w", m, 2*p.EdgeStride)
		w.vprop = w.Lay.Alloc("dist", n, p.VertexStride)
		w.frontier = w.Lay.Alloc("frontier", n, 8)
	case KernelPR:
		w.inIndex = w.Lay.Alloc("in_index", n+1, 8)
		w.inNeigh = w.Lay.Alloc("in_neigh", m, p.EdgeStride)
		w.outIndex = w.Lay.Alloc("out_degree", n, 8)
		w.vprop = w.Lay.Alloc("rank_prev", n, p.VertexStride)
		w.vprop2 = w.Lay.Alloc("rank_next", n, p.VertexStride)
	case KernelCC:
		w.outIndex = w.Lay.Alloc("out_index", n+1, 8)
		w.outNeigh = w.Lay.Alloc("out_neigh", m, p.EdgeStride)
		w.vprop = w.Lay.Alloc("labels", n, p.VertexStride)
	default:
		panic(fmt.Sprintf("workloads: unknown kernel %q", k))
	}
	return w
}

// Footprint returns the simulated memory image size in bytes.
func (w *GraphWorkload) Footprint() uint64 { return w.Lay.Footprint() }

// Ranges returns the simulated VMAs.
func (w *GraphWorkload) Ranges() []mem.Range { return w.Lay.Ranges() }

// Stream returns a fresh access stream for the workload's kernel.
func (w *GraphWorkload) Stream() trace.Stream {
	switch w.Kernel {
	case KernelBFS:
		return w.bfs()
	case KernelSSSP:
		return w.sssp()
	case KernelPR:
		return w.pagerank()
	case KernelCC:
		return w.cc()
	}
	panic("workloads: unknown kernel " + string(w.Kernel))
}

// ownerOf statically partitions vertices across threads by ID range
// (owner-computes, the common graph-framework scheme). With degree-sorted
// inputs the low-ID threads own the hot vertices, producing the per-thread
// TLB-pressure imbalance §5.2 discusses — the reason highest-PCC-frequency
// candidate selection can beat round-robin.
func (w *GraphWorkload) ownerOf(v uint32) int {
	t := int(uint64(v) * uint64(w.Params.Threads) / uint64(w.G.N))
	if t >= w.Params.Threads {
		t = w.Params.Threads - 1
	}
	return t
}

// bfs emits a level-synchronous breadth-first search from the
// highest-degree vertex. Per edge it touches the neighbor record
// (sequential within a vertex's list) and the destination's parent property
// (the random, power-law-reused HUB access); per frontier vertex the index
// array and the worklist.
func (w *GraphWorkload) bfs() trace.Stream {
	return NewStream(func(e *E) {
		if !w.Params.SkipInit {
			EmitInit(e, w.Lay.Arrays())
		}
		g := w.G
		src := g.MaxDegreeVertex()
		parent := make([]int32, g.N)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = int32(src)
		frontier := []uint32{src}
		var fpos uint64 // running frontier slot for worklist addresses
		for len(frontier) > 0 {
			var next []uint32
			for _, u := range frontier {
				t := w.ownerOf(u)
				e.TouchT(w.frontier.Addr(fpos%uint64(g.N)), t)
				fpos++
				e.TouchT(w.outIndex.Addr(uint64(u)), t)
				base := g.OutIndex[u]
				for k, v := range g.Out(u) {
					// Neighbor record: sequential within the list.
					e.TouchT(w.outNeigh.Addr(base+uint64(k)), t)
					// Destination property: the irregular access.
					e.TouchT(w.vprop.Addr(uint64(v)), t)
					if parent[v] < 0 {
						parent[v] = int32(u)
						e.TouchWT(w.frontier.Addr(fpos%uint64(g.N)), t)
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
	})
}

// sssp emits a Bellman-Ford-style single-source shortest paths with
// round-limited frontier relaxation from the highest-degree vertex. Edge
// weights are derived deterministically from the edge index.
func (w *GraphWorkload) sssp() trace.Stream {
	return NewStream(func(e *E) {
		if !w.Params.SkipInit {
			EmitInit(e, w.Lay.Arrays())
		}
		g := w.G
		src := g.MaxDegreeVertex()
		const inf = int64(1) << 62
		dist := make([]int64, g.N)
		for i := range dist {
			dist[i] = inf
		}
		dist[src] = 0
		frontier := []uint32{src}
		inFrontier := make([]bool, g.N)
		inFrontier[src] = true
		var fpos uint64
		for round := 0; round < w.Params.SSSPRounds && len(frontier) > 0; round++ {
			var next []uint32
			for _, u := range frontier {
				inFrontier[u] = false
				t := w.ownerOf(u)
				e.TouchT(w.frontier.Addr(fpos%uint64(g.N)), t)
				fpos++
				e.TouchT(w.outIndex.Addr(uint64(u)), t)
				// Read own distance (hot if u is high degree).
				e.TouchT(w.vprop.Addr(uint64(u)), t)
				du := dist[u]
				base := g.OutIndex[u]
				for k, v := range g.Out(u) {
					eidx := base + uint64(k)
					// Neighbor id + weight share the edge record.
					e.TouchT(w.outNeigh.Addr(eidx), t)
					wgt := int64(eidx%64) + 1
					// Relaxation reads/writes the destination's distance.
					e.TouchT(w.vprop.Addr(uint64(v)), t)
					if du+wgt < dist[v] {
						dist[v] = du + wgt
						if !inFrontier[v] {
							inFrontier[v] = true
							e.TouchWT(w.frontier.Addr(fpos%uint64(g.N)), t)
							next = append(next, v)
						}
					}
				}
			}
			frontier = next
		}
	})
}

// pagerank emits pull-style PageRank: each iteration scans every vertex's
// in-neighbor list sequentially while gathering rank_prev[u] and
// out_degree[u] for each in-neighbor u — the canonical HUB accesses whose
// reuse follows vertex degree — then writes rank_next sequentially.
func (w *GraphWorkload) pagerank() trace.Stream {
	return NewStream(func(e *E) {
		if !w.Params.SkipInit {
			EmitInit(e, w.Lay.Arrays())
		}
		g := w.G
		n := g.N
		rank := make([]float64, n)
		next := make([]float64, n)
		for i := range rank {
			rank[i] = 1 / float64(n)
		}
		// Local copies: the pointer swap below must never mutate the
		// shared workload (streams replay identically).
		prev, cur := w.vprop, w.vprop2
		const damp = 0.85
		for iter := 0; iter < w.Params.PRIters; iter++ {
			for v := 0; v < n; v++ {
				t := w.ownerOf(uint32(v))
				e.TouchT(w.inIndex.Addr(uint64(v)), t)
				sum := 0.0
				base := g.InIndex[v]
				for k, u := range g.In(uint32(v)) {
					e.TouchT(w.inNeigh.Addr(base+uint64(k)), t)
					// Gather: irregular reads of the source's rank and
					// out-degree.
					e.TouchT(prev.Addr(uint64(u)), t)
					e.TouchT(w.outIndex.Addr(uint64(u)), t)
					if d := g.OutDegree(u); d > 0 {
						sum += rank[u] / float64(d)
					}
				}
				next[v] = (1-damp)/float64(n) + damp*sum
				e.TouchWT(cur.Addr(uint64(v)), t)
			}
			rank, next = next, rank
			// The pointer swap real codes do: the arrays alternate roles
			// so both stay hot across iterations.
			prev, cur = cur, prev
		}
	})
}

// GraphDataset identifies one of the paper's three input networks.
type GraphDataset string

const (
	// DatasetKron is the synthetic Kronecker power-law network
	// (the paper's Kronecker 25, scaled down).
	DatasetKron GraphDataset = "kron"
	// DatasetSocial is the Twitter-like social network stand-in.
	DatasetSocial GraphDataset = "social"
	// DatasetWeb is the Sd1-web-like host-structured network stand-in.
	DatasetWeb GraphDataset = "web"
)

// BuildDataset constructs the named dataset at the given scale
// (2^scale vertices, 1..MaxScale), optionally applying degree-based grouping
// ("sorted"). Deterministic per (dataset, scale, sorted).
func BuildDataset(d GraphDataset, scale int, sorted bool) (*graph.CSR, error) {
	if scale < 1 || scale > MaxScale {
		return nil, fmt.Errorf("workloads: graph scale %d out of range 1..%d", scale, MaxScale)
	}
	var g *graph.CSR
	n := 1 << scale
	switch d {
	case DatasetKron:
		g = graph.Kronecker(scale, 16, 42)
	case DatasetSocial:
		g = graph.SocialNetwork(n, 16, 43)
	case DatasetWeb:
		g = graph.WebGraph(n, 16, 44)
	default:
		return nil, fmt.Errorf("workloads: unknown dataset %q", d)
	}
	if sorted {
		g, _ = graph.DegreeBasedGrouping(g)
	}
	return g, nil
}

// randFor returns the deterministic RNG for a workload name (synthetic app
// models each get an independent, reproducible stream).
func randFor(name string, seed int64) *rand.Rand {
	var h int64 = seed
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}
