package experiments

import (
	"fmt"
	"sync"

	"pccsim/internal/trace"
	"pccsim/internal/workloads"
)

// This file implements the process-wide trace record/replay cache. The
// paper's evaluation sweeps one workload address stream across dozens of
// policy/fragmentation/budget cells; without a cache every cell re-executes
// the native graph kernel or synthetic generator that produces the stream.
// The cache records each distinct stream once — into the columnar block
// format (trace.BlockRecording) — and hands every subsequent run a replay,
// so a grid pays workload generation once instead of once per cell.
//
// Replayed streams are byte-identical to live emission (the recording is a
// lossless copy of the access sequence), so experiment output is unaffected;
// the golden figure snapshots are pinned with the cache both enabled and
// disabled. The byte budget is a hard cap on the recordings held, each of
// which holds exactly its encoded Size(): a stream whose encoding would
// overflow it falls back to live generation permanently, and so does one
// that fit when its recording began but not once concurrent recordings of
// other streams were admitted. Quick/CI grids fit comfortably; at default
// scale the graph kernels' multi-base blocks (2.5-3.2 bytes per access)
// let each PageRank stream fit the default budget alone, but not both
// sortings together.

// DefaultTraceCacheBytes is the cache's byte budget when Options.TraceCache
// is zero: large enough for every stream of the quick/CI grids, small
// enough to stay far from the test runner's memory ceiling.
const DefaultTraceCacheBytes int64 = 512 << 20

// traceCache memoizes recordings by workload-spec key, deduplicating
// concurrent recordings of the same stream with the same singleflight
// pattern the graph dataset cache uses: the first task records while the
// rest wait, so a parallel grid generates each stream exactly once.
type traceCache struct {
	mu       sync.Mutex
	recs     map[string]*trace.BlockRecording
	tooBig   map[string]bool
	inflight map[string]chan struct{}
	bytes    int64
}

// sharedTraceCache is the process-wide instance every Options uses.
var sharedTraceCache = newTraceCache()

func newTraceCache() *traceCache {
	return &traceCache{
		recs:     map[string]*trace.BlockRecording{},
		tooBig:   map[string]bool{},
		inflight: map[string]chan struct{}{},
	}
}

// stats reports the cache's current contents (tests and diagnostics).
func (c *traceCache) stats() (recordings, blocks int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recs {
		blocks += r.Blocks()
	}
	return len(c.recs), blocks, c.bytes
}

// stream returns a replay of the stream identified by key, recording it via
// live() on first use. budget is a hard cap on the cache's total encoded
// bytes: a stream that would overflow it, including one that fit when its
// recording began but not once concurrent recordings of other keys were
// admitted, is marked uncacheable and served live on every later request.
func (c *traceCache) stream(key string, budget int64, live func() trace.Stream) trace.Stream {
	for {
		c.mu.Lock()
		if r := c.recs[key]; r != nil {
			c.mu.Unlock()
			return r.Replay()
		}
		if c.tooBig[key] {
			c.mu.Unlock()
			return live()
		}
		if done, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-done
			// The recorder finished (or gave up); re-check the cache.
			continue
		}
		done := make(chan struct{})
		c.inflight[key] = done
		remaining := budget - c.bytes
		c.mu.Unlock()
		if rec := c.record(key, done, budget, remaining, live); rec != nil {
			return rec.Replay()
		}
		return live()
	}
}

// record records key's stream via live() while holding its inflight slot
// done, and returns nil when the encoding overflows remaining. Its deferred
// epilogue releases the slot in the critical section that admits the
// recording, so the woken waiters find it cached. It also runs when live()
// or the recording panics: the key is then served live, and a recovered
// panic cannot leave later requests for it waiting forever.
func (c *traceCache) record(key string, done chan struct{}, budget, remaining int64, live func() trace.Stream) (rec *trace.BlockRecording) {
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.inflight, key)
		close(done)
		if rec == nil || c.bytes+int64(rec.Size()) > budget {
			// Over budget, or another key was admitted while this one
			// recorded: the key becomes uncacheable, but a finished
			// recording still serves this request, since it equals the
			// live stream.
			c.tooBig[key] = true
			return
		}
		c.recs[key] = rec
		c.bytes += int64(rec.Size())
	}()
	if remaining > 0 {
		st := live()
		// A capped or panicked recording leaves the stream partially
		// drained; either way the producer goroutine must be released.
		defer workloads.CloseStream(st)
		rec = trace.RecordBlocks(st, remaining)
	}
	return rec
}

// traceCacheBytes resolves the Options.TraceCache setting: 0 selects the
// default budget, negative disables the cache, positive is a byte cap.
func (o Options) traceCacheBytes() int64 {
	switch {
	case o.TraceCache < 0:
		return 0
	case o.TraceCache == 0:
		return DefaultTraceCacheBytes
	default:
		return o.TraceCache
	}
}

// traceKey identifies a stream by every spec field that shapes it. Two runs
// with equal keys consume byte-identical access sequences.
func traceKey(s workloads.Spec) string {
	return fmt.Sprintf("%s|%s|%v|%d|t%d|z%g|a%d|i%v",
		s.Name, s.Dataset, s.Sorted, s.Scale, s.Threads, s.SizeScale, s.Accesses, s.SkipInit)
}

// streamFor returns wl's access stream for one simulation run: a cache
// replay when the trace cache is enabled, the workload's live stream
// otherwise.
func (o Options) streamFor(s workloads.Spec, wl workloads.Workload) trace.Stream {
	budget := o.traceCacheBytes()
	if budget <= 0 {
		return wl.Stream()
	}
	return sharedTraceCache.stream(traceKey(s), budget, wl.Stream)
}

// TraceCacheStats reports the process-wide trace cache's contents: how many
// workload streams are cached and their total encoded size. The daemon's
// health endpoint surfaces it, and tests use it to assert that concurrent
// jobs share recordings instead of regenerating streams.
func TraceCacheStats() (recordings int, bytes int64) {
	recordings, _, bytes = sharedTraceCache.stats()
	return recordings, bytes
}

// TraceCacheBlocks reports how many columnar blocks the cached recordings
// hold in total (the daemon's health endpoint surfaces it alongside the
// stream count and byte size).
func TraceCacheBlocks() int {
	_, blocks, _ := sharedTraceCache.stats()
	return blocks
}
