package workloads

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

const testScale = 12 // tiny graphs for fast tests

// collect drains up to max accesses of s.
func collect(s trace.Stream, max int) []trace.Access {
	var out []trace.Access
	for len(out) < max {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// count drains s and returns its length.
func count(s trace.Stream) uint64 {
	bs, buf, n := trace.Batched(s), make([]trace.Access, 1024), uint64(0)
	for k := bs.NextBatch(buf); k > 0; k = bs.NextBatch(buf) {
		n += uint64(k)
	}
	return n
}

func TestLayoutAlloc(t *testing.T) {
	l := NewLayout()
	a := l.Alloc("a", 100, 8)
	b := l.Alloc("b", 1000, 64)
	if !mem.Aligned(a.R.Start, mem.Page2M) || !mem.Aligned(b.R.Start, mem.Page2M) {
		t.Error("arrays must be 2MB aligned")
	}
	if a.R.Overlaps(b.R) {
		t.Error("arrays must not overlap")
	}
	if a.Addr(0) != a.R.Start || a.Addr(2) != a.R.Start+16 {
		t.Error("element addressing broken")
	}
	if l.Footprint() != a.R.Len()+b.R.Len() {
		t.Error("footprint must sum array lengths")
	}
	if len(l.Ranges()) != 2 {
		t.Error("ranges must list both arrays")
	}
}

func TestLayoutZeroStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero stride must panic")
		}
	}()
	NewLayout().Alloc("bad", 10, 0)
}

func TestEmitterStreamsAllAccesses(t *testing.T) {
	s := NewStream(func(e *E) {
		for i := 0; i < 100000; i++ {
			e.TouchT(mem.VirtAddr(i*64), 0)
		}
	})
	n := count(s)
	if n != 100000 {
		t.Errorf("emitted %d, want 100000", n)
	}
}

func TestEmitterThreadAndWriteTags(t *testing.T) {
	s := NewStream(func(e *E) {
		e.TouchT(0x1000, 3)
		e.TouchWT(0x2000, 5)
		e.TouchW(0x3000)
	})
	acc := collect(s, 10)
	if len(acc) != 3 {
		t.Fatalf("len = %d", len(acc))
	}
	if acc[0].Thread != 3 || acc[0].Write {
		t.Errorf("acc0 = %+v", acc[0])
	}
	if acc[1].Thread != 5 || !acc[1].Write {
		t.Errorf("acc1 = %+v", acc[1])
	}
	if acc[2].Thread != 0 || !acc[2].Write {
		t.Errorf("acc2 = %+v", acc[2])
	}
}

func TestEmitterCloseTerminatesProducer(t *testing.T) {
	// A producer emitting far more than the consumer reads must be
	// unblocked and terminated by Close (no goroutine leak, no deadlock).
	s := NewStream(func(e *E) {
		for i := 0; i < 10_000_000; i++ {
			e.TouchT(mem.VirtAddr(i), 0)
		}
	})
	for i := 0; i < 10; i++ {
		s.Next()
	}
	CloseStream(s)
	if _, ok := s.Next(); ok {
		t.Error("closed stream must be exhausted")
	}
	CloseStream(s) // idempotent
}

func TestEmitInitCoversArrays(t *testing.T) {
	l := NewLayout()
	a := l.Alloc("a", 1024, 64)
	s := NewStream(func(e *E) { EmitInit(e, l.Arrays()) })
	pages := map[mem.PageNum]bool{}
	for {
		acc, ok := s.Next()
		if !ok {
			break
		}
		if !acc.Write {
			t.Fatal("init accesses must be writes")
		}
		pages[mem.PageNumber(acc.Addr, mem.Page4K)] = true
	}
	wantPages := a.R.Len() / uint64(mem.Page4K)
	if uint64(len(pages)) != wantPages {
		t.Errorf("init touched %d pages, want %d (every page faulted)", len(pages), wantPages)
	}
}

func TestBuildUnknownApp(t *testing.T) {
	if _, err := Build(Spec{Name: "nope"}); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestBuildUnknownDataset(t *testing.T) {
	if _, err := Build(Spec{Name: "BFS", Dataset: "marsnet", Scale: testScale}); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

// TestBuildDatasetScaleRange: a scale outside 1..MaxScale is an error on
// every dataset, through BuildDataset and through Build, never a panic or a
// negative shift.
func TestBuildDatasetScaleRange(t *testing.T) {
	for _, d := range []GraphDataset{DatasetKron, DatasetSocial, DatasetWeb} {
		for _, scale := range []int{-3, 0, MaxScale + 1, 64} {
			if g, err := BuildDataset(d, scale, false); err == nil || g != nil {
				t.Errorf("BuildDataset(%s, %d) = (%v, %v), want an error", d, scale, g, err)
			}
			if scale == 0 {
				continue // Spec.Scale 0 selects DefaultScale
			}
			if _, err := Build(Spec{Name: "BFS", Dataset: d, Scale: scale}); err == nil {
				t.Errorf("Build(BFS, %s, scale %d) succeeded, want an error", d, scale)
			}
		}
		if _, err := BuildDataset(d, 1, true); err != nil {
			t.Errorf("BuildDataset(%s, 1): %v", d, err)
		}
	}
}

func TestGraphAppsProduceStreams(t *testing.T) {
	for _, name := range GraphAppNames() {
		wl, err := Build(Spec{Name: name, Scale: testScale})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wl.Name() != name {
			t.Errorf("name = %q", wl.Name())
		}
		if wl.Footprint() == 0 || len(wl.Ranges()) == 0 {
			t.Errorf("%s: empty image", name)
		}
		if wl.BaseCPA() <= 0 {
			t.Errorf("%s: bad BaseCPA", name)
		}
		n := count(trace.Limit(wl.Stream(), 1<<40))
		if n == 0 {
			t.Errorf("%s: empty stream", name)
		}
	}
}

func TestGraphStreamAddressesInRanges(t *testing.T) {
	for _, name := range GraphAppNames() {
		wl, err := Build(Spec{Name: name, Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		ranges := wl.Ranges()
		s := wl.Stream()
		count := 0
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			count++
			in := false
			for _, r := range ranges {
				if r.Contains(a.Addr) {
					in = true
					break
				}
			}
			if !in {
				t.Fatalf("%s: access %#x outside VMAs", name, uint64(a.Addr))
			}
		}
		if count == 0 {
			t.Fatalf("%s: no accesses", name)
		}
	}
}

func TestGraphStreamReplaysIdentically(t *testing.T) {
	wl, err := Build(Spec{Name: "PR", Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	a := collect(wl.Stream(), 200000)
	b := collect(wl.Stream(), 200000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestGraphRecordingsCompact pins the columnar format's gain on the graph
// kernels: every kron-12 stream, in both sortings, records at no more than
// 2.6 bytes per access (the single-base layout alone needs 3.3-3.5) and
// replays exactly.
func TestGraphRecordingsCompact(t *testing.T) {
	for _, name := range GraphAppNames() {
		for _, sorted := range []bool{false, true} {
			wl, err := Build(Spec{Name: name, Scale: testScale, Sorted: sorted})
			if err != nil {
				t.Fatal(err)
			}
			live := collect(wl.Stream(), 1<<30)
			st := wl.Stream()
			rec := trace.RecordBlocks(st, 0)
			CloseStream(st)
			got := collect(rec.Replay(), len(live)+1)
			if len(got) != len(live) {
				t.Fatalf("%s sorted=%v: replay holds %d accesses, live %d", name, sorted, len(got), len(live))
			}
			for i := range live {
				if got[i] != live[i] {
					t.Fatalf("%s sorted=%v: replay diverges at %d: %+v vs %+v", name, sorted, i, got[i], live[i])
				}
			}
			if bpa := float64(rec.Size()) / float64(rec.Accesses()); bpa > 2.6 {
				t.Errorf("%s sorted=%v: %.3f B/access, want <= 2.6 (%s)", name, sorted, bpa, rec.Stats())
			} else {
				t.Logf("%s sorted=%v: %.3f B/access", name, sorted, bpa)
			}
		}
	}
}

func TestSSSPFootprintLargerThanBFS(t *testing.T) {
	// Needs a scale where the edge arrays exceed the 2MB padding floor.
	bfs, _ := Build(Spec{Name: "BFS", Scale: 14})
	sssp, _ := Build(Spec{Name: "SSSP", Scale: 14})
	if sssp.Footprint() <= bfs.Footprint() {
		t.Errorf("SSSP footprint (%d) must exceed BFS (%d) — weighted edges",
			sssp.Footprint(), bfs.Footprint())
	}
}

func TestMultithreadTagsCoverThreads(t *testing.T) {
	wl, err := Build(Spec{Name: "PR", Scale: testScale, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := wl.Stream()
	seen := map[int]bool{}
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if a.Thread < 0 || a.Thread >= 4 {
			t.Fatalf("thread tag %d out of range", a.Thread)
		}
		seen[a.Thread] = true
	}
	if len(seen) != 4 {
		t.Errorf("threads seen = %v, want all 4", seen)
	}
}

func TestSynthAppsProduceBoundedStreams(t *testing.T) {
	p := SynthParams{SizeScale: 0.02, Accesses: 50000}
	apps := []*SynthApp{Canneal(p), Omnetpp(p), Xalancbmk(p), Dedup(p), Mcf(p)}
	for _, app := range apps {
		if app.Footprint() == 0 {
			t.Errorf("%s: zero footprint", app.Name())
		}
		s := app.Stream()
		count, outside := 0, 0
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			count++
			in := false
			for _, r := range app.Ranges() {
				if r.Contains(a.Addr) {
					in = true
					break
				}
			}
			if !in {
				outside++
			}
		}
		if outside > 0 {
			t.Errorf("%s: %d accesses outside VMAs", app.Name(), outside)
		}
		// Init pass + the requested accesses (weighted splits round down).
		if count < 50000/2 {
			t.Errorf("%s: only %d accesses", app.Name(), count)
		}
	}
}

func TestSynthStreamDeterministic(t *testing.T) {
	p := SynthParams{SizeScale: 0.02, Accesses: 20000}
	a := collect(Canneal(p).Stream(), 30000)
	b := collect(Canneal(p).Stream(), 30000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canneal stream not deterministic at %d", i)
		}
	}
}

func TestTableInfo(t *testing.T) {
	infos, err := TableInfo(testScale)
	if err != nil {
		t.Fatal(err)
	}
	// 3 graph apps x 3 datasets + 5 synthetic apps.
	if len(infos) != 14 {
		t.Errorf("rows = %d, want 14", len(infos))
	}
	for _, in := range infos {
		if in.Footprint == 0 {
			t.Errorf("%s/%s: zero footprint", in.Application, in.Input)
		}
	}
}

func TestSortedSpecs(t *testing.T) {
	specs := SortedSpecs(Spec{Name: "BFS", Dataset: DatasetKron})
	if len(specs) != 2 || specs[0].Sorted == specs[1].Sorted {
		t.Errorf("specs = %+v", specs)
	}
}

// datasetCacheLen reports how many graphs are cached.
func datasetCacheLen() int {
	dsMu.Lock()
	defer dsMu.Unlock()
	return len(dsCache)
}

func TestDatasetCache(t *testing.T) {
	before := datasetCacheLen()
	if _, err := Build(Spec{Name: "BFS", Dataset: DatasetWeb, Scale: testScale}); err != nil {
		t.Fatal(err)
	}
	mid := datasetCacheLen()
	if mid <= before-1 && mid == 0 {
		t.Error("cache must grow")
	}
	if _, err := Build(Spec{Name: "SSSP", Dataset: DatasetWeb, Scale: testScale}); err != nil {
		t.Fatal(err)
	}
	if datasetCacheLen() != mid {
		t.Error("same dataset must be cached, not rebuilt")
	}
}

func TestAppNames(t *testing.T) {
	if len(AppNames()) != 8 {
		t.Errorf("apps = %v", AppNames())
	}
	if len(GraphAppNames()) != 3 {
		t.Errorf("graph apps = %v", GraphAppNames())
	}
}

func TestBFSVisitsWholeComponent(t *testing.T) {
	// The BFS trace should touch most of the parent array (the kron
	// graph's giant component): check distinct vprop pages touched.
	wl, err := Build(Spec{Name: "BFS", Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	gw := wl.(*graphApp).w
	s := wl.Stream()
	touched := map[mem.PageNum]bool{}
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if gw.vprop.R.Contains(a.Addr) {
			touched[mem.PageNumber(a.Addr, mem.Page4K)] = true
		}
	}
	pages := gw.vprop.R.Len() / uint64(mem.Page4K)
	if uint64(len(touched)) < pages/2 {
		t.Errorf("BFS touched %d of %d vprop pages", len(touched), pages)
	}
}

func TestCCKernel(t *testing.T) {
	wl, err := Build(Spec{Name: "CC", Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Footprint() == 0 {
		t.Fatal("CC must lay out an image")
	}
	ranges := wl.Ranges()
	s := wl.Stream()
	n, outside := 0, 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		n++
		in := false
		for _, r := range ranges {
			if r.Contains(a.Addr) {
				in = true
				break
			}
		}
		if !in {
			outside++
		}
	}
	if n == 0 || outside > 0 {
		t.Errorf("accesses=%d outside=%d", n, outside)
	}
	// Replays identically.
	a := collect(wl.Stream(), 50000)
	b := collect(wl.Stream(), 50000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CC stream diverges at %d", i)
		}
	}
}
