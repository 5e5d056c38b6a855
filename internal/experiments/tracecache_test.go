package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/trace"
	"pccsim/internal/workloads"
)

// filterWallClock drops the pool's wall-clock gauges, which legitimately
// vary run to run; everything else in a snapshot is deterministic.
func filterWallClock(s obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{}
	for k, v := range s {
		if strings.HasPrefix(k, "pool.task.seconds.") {
			continue
		}
		out[k] = v
	}
	return out
}

// TestTraceCacheDeterminism pins the cache's core contract: a grid over one
// graph and one synthetic workload produces identical results and identical
// (wall-clock-filtered) metrics snapshots whether streams are generated live
// or replayed from recordings, at 1 worker and at 8.
func TestTraceCacheDeterminism(t *testing.T) {
	o, _ := tiny()
	cells := []cell{
		{app: "BFS", rc: runCfg{kind: polPCC, budgetPct: 25}},
		{app: "mcf", rc: runCfg{kind: polPCC, budgetPct: 25}},
	}
	var want []appResult
	var wantObs obs.Snapshot
	for _, w := range []int{1, 8} {
		for _, tc := range []int64{-1, 0} { // live emission, then cached replay
			oo := o
			oo.Workers = w
			oo.TraceCache = tc
			reg := obs.NewRegistry()
			oo.Obs = reg
			got, err := oo.runCells(cells)
			if err != nil {
				t.Fatalf("workers=%d cache=%d: %v", w, tc, err)
			}
			snap := filterWallClock(reg.Snapshot())
			if want == nil {
				want, wantObs = got, snap
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d cache=%d: results diverged from live single-worker run:\ngot  %+v\nwant %+v", w, tc, got, want)
			}
			if !reflect.DeepEqual(snap, wantObs) {
				t.Errorf("workers=%d cache=%d: obs counters diverged:\ngot  %v\nwant %v", w, tc, snap, wantObs)
			}
		}
	}
}

// TestTraceCacheRecordsOnceAndFallsBack exercises the cache mechanics
// directly: a hit returns a replay without re-invoking the generator, and a
// stream over budget is served live, now and later.
func TestTraceCacheRecordsOnceAndFallsBack(t *testing.T) {
	c := newTraceCache()
	spec := workloads.Spec{Name: "mcf", SizeScale: 0.02, Accesses: 50_000, Threads: 1}
	wl, err := workloads.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	live := func() trace.Stream {
		calls++
		return wl.Stream()
	}
	st1 := c.stream("k", 1<<30, func() trace.Stream { return live() })
	n1 := drainCount(st1)
	st2 := c.stream("k", 1<<30, func() trace.Stream { return live() })
	n2 := drainCount(st2)
	if calls != 1 {
		t.Errorf("generator invoked %d times, want 1 (second request must replay)", calls)
	}
	if n1 == 0 || n1 != n2 {
		t.Errorf("replay length %d differs from recorded %d", n2, n1)
	}
	if recs, blocks, bytes := c.stats(); recs != 1 || blocks == 0 || bytes <= 0 {
		t.Errorf("stats = (%d, %d, %d), want one bounded recording with blocks", recs, blocks, bytes)
	}

	// A 1-byte budget cannot hold any recording: both requests serve live.
	c2 := newTraceCache()
	calls = 0
	st3 := c2.stream("big", 1, func() trace.Stream { return live() })
	drainCount(st3)
	st4 := c2.stream("big", 1, func() trace.Stream { return live() })
	drainCount(st4)
	// First request consumes one stream recording (aborted) + one live
	// stream; the second goes straight to live.
	if calls != 3 {
		t.Errorf("generator invoked %d times, want 3 (record attempt + 2 live fallbacks)", calls)
	}
}

// TestTraceCacheBudgetIsHard: two different streams recorded at the same
// time each fit the budget alone but not together. Both live generators
// meet at a barrier, so both recordings are in flight at once; the cache
// must admit only one, and the other request must still get its full
// stream.
func TestTraceCacheBudgetIsHard(t *testing.T) {
	const n = 50_000
	mk := func(base mem.VirtAddr) func() trace.Stream {
		return func() trace.Stream { return trace.Sequential(base, 1<<30, 64, n) }
	}
	size := int64(trace.RecordBlocks(mk(0)(), 0).Size())
	budget := size * 3 / 2
	c := newTraceCache()
	var arrive sync.WaitGroup
	arrive.Add(2)
	barrier := func(gen func() trace.Stream) func() trace.Stream {
		var once sync.Once
		return func() trace.Stream {
			once.Do(func() { arrive.Done(); arrive.Wait() })
			return gen()
		}
	}
	var wg sync.WaitGroup
	got := make([][]trace.Access, 2)
	for i, base := range []mem.VirtAddr{1 << 32, 1 << 40} {
		live := barrier(mk(base))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = collect(c.stream(fmt.Sprint(base), budget, live), n+1)
		}()
	}
	wg.Wait()
	if recs, _, bytes := c.stats(); recs != 1 || bytes > budget {
		t.Fatalf("cache holds %d recordings in %d B, want 1 within the %d B budget", recs, bytes, budget)
	}
	for i, base := range []mem.VirtAddr{1 << 32, 1 << 40} {
		if want := collect(mk(base)(), n+1); !reflect.DeepEqual(got[i], want) {
			t.Errorf("stream %d: got %d accesses, not the live stream's %d", i, len(got[i]), len(want))
		}
	}
}

// panicStream is a stream whose producer panics after n accesses.
type panicStream struct{ n int }

func (p *panicStream) Next() (trace.Access, bool) {
	if p.n == 0 {
		panic("producer failed")
	}
	p.n--
	return trace.Access{Addr: mem.VirtAddr(p.n) << 12}, true
}

// TestTraceCacheSurvivesRecordingPanic: a stream that panics while the
// cache records it must not keep its key's inflight slot. After the panic
// is recovered, a second request for the key is served and completes.
func TestTraceCacheSurvivesRecordingPanic(t *testing.T) {
	c := newTraceCache()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the recording did not panic")
			}
		}()
		c.stream("k", 1<<30, func() trace.Stream { return &panicStream{n: 10} })
	}()
	got := make(chan int)
	go func() {
		got <- drainCount(c.stream("k", 1<<30, func() trace.Stream { return trace.Sequential(0, 1<<30, 64, 100) }))
	}()
	select {
	case n := <-got:
		if n != 100 {
			t.Errorf("second request streamed %d accesses, want 100", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second request for the key blocked after the first recording panicked")
	}
}

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

func drainCount(s trace.Stream) int {
	defer workloads.CloseStream(s)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

// TestTraceFileCellClosesStreams: a trace-file cell closes the file behind
// every stream it opens. With the GC off, so that no finalizer closes a
// leaked file, a four-budget cell with the trace cache off leaves the
// process's open descriptors where it found them.
func TestTraceFileCellClosesStreams(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&b, "%#x\n", 0x40000000+(i*7919%1024)<<12)
	}
	path := filepath.Join(t.TempDir(), "cell.trc")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list open descriptors: %v", err)
		}
		return len(ents)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	openFDs() // the first open may start the runtime's poller
	before := openFDs()
	o := QuickOptions(io.Discard)
	o.TraceCache = -1
	o.Workers = 1
	c := Cell{App: "trace:" + path, Policy: "pcc", Budgets: []float64{0, 4, 16, 50}, Threads: 1, PCCEntries: 128}
	if err := RunCell(o, c); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(); after != before {
		t.Errorf("the cell left %d descriptors open (%d before, %d after)", after-before, before, after)
	}
}
