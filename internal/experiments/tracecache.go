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
// disabled. Streams whose encoding would overflow the byte budget fall back
// to live generation permanently (the full-scale graph kernels at default
// scale can exceed any reasonable cap; quick/CI grids fit comfortably).

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
// live() on first use. budget caps the cache's total encoded bytes: a
// stream that would overflow it is marked uncacheable and served live, now
// and on every later request.
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

		var rec *trace.BlockRecording
		if remaining > 0 {
			st := live()
			rec = trace.RecordBlocks(st, remaining)
			// A capped recording leaves the stream partially drained;
			// either way the producer goroutine must be released.
			workloads.CloseStream(st)
		}

		c.mu.Lock()
		delete(c.inflight, key)
		close(done)
		if rec == nil {
			c.tooBig[key] = true
			c.mu.Unlock()
			return live()
		}
		c.recs[key] = rec
		c.bytes += int64(rec.Size())
		c.mu.Unlock()
		return rec.Replay()
	}
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
