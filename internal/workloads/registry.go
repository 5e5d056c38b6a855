package workloads

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"pccsim/internal/graph"
	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// Workload is the interface the simulator runs: a named program with a
// simulated memory image and a replayable access stream.
type Workload interface {
	// Name identifies the workload (e.g. "BFS", "mcf").
	Name() string
	// Footprint is the simulated memory image size in bytes.
	Footprint() uint64
	// Ranges lists the simulated VMAs backing the image.
	Ranges() []mem.Range
	// Stream returns a fresh access stream (replays identically).
	Stream() trace.Stream
	// BaseCPA is the workload's base cycles-per-access for the cost model
	// (how memory-bound its non-translation work is).
	BaseCPA() float64
}

// Spec describes a workload instantiation request.
type Spec struct {
	// Name selects the application: BFS, SSSP, PR, canneal, omnetpp,
	// xalancbmk, dedup, mcf, or an external trace file as "trace:<path>".
	Name string
	// Dataset selects the graph input for BFS/SSSP/PR (ignored for
	// others). Empty means DatasetKron.
	Dataset GraphDataset
	// Sorted applies degree-based grouping to the graph input.
	Sorted bool
	// Scale is the graph scale (2^scale vertices); 0 means the default.
	Scale int
	// Threads partitions the graph kernels; 0/1 is single-threaded.
	Threads int
	// SizeScale scales the synthetic apps' footprints; 0 means 1.0.
	SizeScale float64
	// Accesses overrides the five synthetic apps' access count after their
	// initialization pass (SynthParams.Accesses); 0 = default. No other
	// workload reads it.
	Accesses uint64
	// SkipInit omits the graph kernels' initialization pass (used by the
	// reuse-distance characterization; see GraphParams.SkipInit). The
	// synthetic apps ignore it and stream their initialization pass.
	SkipInit bool
}

// DefaultScale is the default graph scale: 2^20 vertices, 16x edges. The
// resulting simulated footprints (hundreds of MB against a 4MB L2 TLB
// reach) preserve the paper's footprint >> TLB-coverage regime, with the
// vertex property arrays (the HUBs) at a few percent of the footprint as in
// the paper's inputs.
const DefaultScale = 20

// MaxScale is the largest graph scale a dataset can be built at.
const MaxScale = 30

// Validate refuses the spec fields Build would reject or quietly
// reinterpret, naming the command-line flag that sets each one: an unknown
// Dataset, and a Scale outside 0..MaxScale (0 keeps the default). Build
// itself refuses an unknown Name.
func (s Spec) Validate() error {
	switch s.Dataset {
	case "", DatasetKron, DatasetSocial, DatasetWeb:
	default:
		return fmt.Errorf("-dataset %q: want kron, social or web", s.Dataset)
	}
	if s.Scale < 0 || s.Scale > MaxScale {
		return fmt.Errorf("-scale must be 1..%d (or 0 for the default), got %d", MaxScale, s.Scale)
	}
	return nil
}

// graphApp adapts GraphWorkload to the Workload interface.
type graphApp struct {
	name    string
	w       *GraphWorkload
	baseCPA float64
}

func (g *graphApp) Name() string         { return g.name }
func (g *graphApp) Footprint() uint64    { return g.w.Footprint() }
func (g *graphApp) Ranges() []mem.Range  { return g.w.Ranges() }
func (g *graphApp) Stream() trace.Stream { return g.w.Stream() }
func (g *graphApp) BaseCPA() float64     { return g.baseCPA }

// synthAdapter wraps SynthApp into Workload with a CPA.
type synthAdapter struct {
	*SynthApp
	baseCPA float64
}

func (s *synthAdapter) BaseCPA() float64 { return s.baseCPA }

// baseCPAFor returns the calibrated base cycles-per-access per application.
// Graph kernels and canneal are memory-latency-bound (low base cost, so
// translation overhead is a large fraction); dedup/mcf are cache-optimized
// (high base cost dominated by other work).
func baseCPAFor(name string) float64 {
	switch name {
	case "BFS", "CC":
		return 20
	case "SSSP":
		return 24
	case "PR":
		return 22
	case "canneal":
		return 20
	case "omnetpp":
		return 22
	case "xalancbmk":
		return 26
	case "dedup":
		return 30
	case "mcf":
		return 32
	default:
		return 22
	}
}

// AppNames lists the eight evaluation applications in the paper's order.
func AppNames() []string {
	return []string{"BFS", "SSSP", "PR", "canneal", "omnetpp", "xalancbmk", "dedup", "mcf"}
}

// GraphAppNames lists the TLB-sensitive graph kernels.
func GraphAppNames() []string { return []string{"BFS", "SSSP", "PR"} }

// Build instantiates a workload from a spec. Graph construction is
// deterministic and cached per (dataset, scale, sorted) so repeated builds
// in a sweep are cheap.
func Build(s Spec) (Workload, error) {
	switch s.Name {
	case "BFS", "SSSP", "PR", "CC":
		return buildGraphApp(s)
	case "canneal", "omnetpp", "xalancbmk", "dedup", "mcf":
		p := DefaultSynthParams()
		if s.SizeScale > 0 {
			p.SizeScale = s.SizeScale
		}
		if s.Accesses > 0 {
			p.Accesses = s.Accesses
		}
		var app *SynthApp
		switch s.Name {
		case "canneal":
			app = Canneal(p)
		case "omnetpp":
			app = Omnetpp(p)
		case "xalancbmk":
			app = Xalancbmk(p)
		case "dedup":
			app = Dedup(p)
		case "mcf":
			app = Mcf(p)
		}
		return &synthAdapter{SynthApp: app, baseCPA: baseCPAFor(s.Name)}, nil
	default:
		if path, ok := strings.CutPrefix(s.Name, TracePrefix); ok {
			return TraceFile(path)
		}
		return nil, fmt.Errorf("workloads: unknown application %q", s.Name)
	}
}

type graphKey struct {
	d      GraphDataset
	scale  int
	sorted bool
}

func buildGraphApp(s Spec) (Workload, error) {
	scale := s.Scale
	if scale == 0 {
		scale = DefaultScale
	}
	d := s.Dataset
	if d == "" {
		d = DatasetKron
	}
	g, err := cachedDataset(d, scale, s.Sorted)
	if err != nil {
		return nil, err
	}
	p := DefaultGraphParams()
	if s.Threads > 1 {
		p.Threads = s.Threads
	}
	p.SkipInit = s.SkipInit
	w := NewGraphWorkload(g, p, Kernel(s.Name))
	return &graphApp{name: s.Name, w: w, baseCPA: baseCPAFor(s.Name)}, nil
}

// Info describes a workload for the Table 1 analogue.
type Info struct {
	Application string
	Input       string
	Nodes       int
	Edges       uint64
	Footprint   uint64
}

// TableInfo builds the Table 1 analogue for the default configuration:
// per graph kernel, one row per dataset; per synthetic app, one row.
func TableInfo(scale int) ([]Info, error) {
	if scale == 0 {
		scale = DefaultScale
	}
	var out []Info
	for _, name := range GraphAppNames() {
		for _, d := range []GraphDataset{DatasetKron, DatasetSocial, DatasetWeb} {
			wl, err := Build(Spec{Name: name, Dataset: d, Scale: scale})
			if err != nil {
				return nil, err
			}
			g, err := cachedDataset(d, scale, false)
			if err != nil {
				return nil, err
			}
			out = append(out, Info{
				Application: name,
				Input:       datasetLabel(d, scale),
				Nodes:       g.N,
				Edges:       g.NumEdges(),
				Footprint:   wl.Footprint(),
			})
		}
	}
	for _, name := range []string{"canneal", "dedup", "mcf", "omnetpp", "xalancbmk"} {
		wl, err := Build(Spec{Name: name})
		if err != nil {
			return nil, err
		}
		out = append(out, Info{Application: name, Input: "synthetic-native", Footprint: wl.Footprint()})
	}
	return out, nil
}

func datasetLabel(d GraphDataset, scale int) string {
	switch d {
	case DatasetKron:
		return fmt.Sprintf("Kronecker %d", scale)
	case DatasetSocial:
		return "Social (Twitter-like)"
	case DatasetWeb:
		return "Web (Sd1-like)"
	}
	return string(d)
}

// SortedSpecs expands a graph-app spec into its sorted and unsorted dataset
// variants (the paper reports the geomean of both).
func SortedSpecs(s Spec) []Spec {
	a, b := s, s
	a.Sorted = false
	b.Sorted = true
	return []Spec{a, b}
}

// The dataset cache is shared by every concurrently-running simulation task
// (graphs are immutable once built, so sharing the *CSR values is safe).
// dsInflight deduplicates concurrent builds of the same graph: the first
// caller builds while the rest wait on its channel, so a parallel sweep
// builds each dataset exactly once instead of workers-many times.
var (
	dsMu       sync.Mutex
	dsCache    = map[graphKey]*graph.CSR{}
	dsInflight = map[graphKey]chan struct{}{}
)

// cachedDataset memoizes BuildDataset so parameter sweeps reuse graphs.
func cachedDataset(d GraphDataset, scale int, sorted bool) (*graph.CSR, error) {
	k := graphKey{d: d, scale: scale, sorted: sorted}
	for {
		dsMu.Lock()
		if g, ok := dsCache[k]; ok {
			dsMu.Unlock()
			return g, nil
		}
		if done, ok := dsInflight[k]; ok {
			dsMu.Unlock()
			<-done
			// The builder finished (or failed); re-check the cache.
			continue
		}
		done := make(chan struct{})
		dsInflight[k] = done
		dsMu.Unlock()

		g, err := BuildDataset(d, scale, sorted)

		dsMu.Lock()
		delete(dsInflight, k)
		close(done)
		if err != nil {
			dsMu.Unlock()
			return nil, err
		}
		dsCache[k] = g
		// Bound the cache: keep at most 12 graphs (hot sweeps reuse few).
		if len(dsCache) > 12 {
			keys := make([]graphKey, 0, len(dsCache))
			for kk := range dsCache {
				keys = append(keys, kk)
			}
			sort.Slice(keys, func(i, j int) bool {
				return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
			})
			for _, kk := range keys {
				if len(dsCache) <= 12 {
					break
				}
				if kk != k {
					delete(dsCache, kk)
				}
			}
		}
		dsMu.Unlock()
		return g, nil
	}
}
