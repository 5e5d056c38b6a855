// Package trace defines the memory-access-stream abstraction the simulator
// consumes, utilities to combine per-thread streams, the page reuse-distance
// analyzer behind Fig. 2's HUB characterization, and a family of synthetic
// address-stream generators used to model the non-graph workloads.
//
// A stream is pull-based: the virtual machine monitor asks for the next
// access. This keeps memory bounded — multi-gigabyte-equivalent traces are
// never materialized. Streams that can produce accesses in bulk additionally
// implement BatchStream, which the simulator prefers: one NextBatch call
// replaces thousands of per-access interface dispatches on the hot path.
package trace

import (
	"pccsim/internal/mem"
)

// Access is one memory reference.
type Access struct {
	Addr mem.VirtAddr
	// Thread identifies the simulated hardware thread/core issuing the
	// access (0 for single-threaded workloads).
	Thread int
	// Write is informational; the TLB path treats loads and stores alike.
	Write bool
}

// Stream produces a sequence of accesses. Next returns ok=false when the
// stream is exhausted. Implementations are single-use; construct a fresh
// stream to replay.
type Stream interface {
	Next() (Access, bool)
}

// BatchStream is a Stream that can also fill a caller-provided buffer in
// bulk. NextBatch writes up to len(buf) accesses into buf and returns how
// many were written; 0 means the stream is exhausted (a zero-length buf also
// returns 0 without consuming anything). The accesses come in exactly the
// order Next would have produced them, and callers may mix Next and
// NextBatch calls freely.
type BatchStream interface {
	Stream
	NextBatch(buf []Access) int
}

// Batched adapts any Stream to BatchStream. Streams that already implement
// NextBatch are returned unchanged; others get a loop adapter (which still
// amortizes the consumer's dispatch, though not the producer's).
func Batched(s Stream) BatchStream {
	if bs, ok := s.(BatchStream); ok {
		return bs
	}
	return &batched{s: s}
}

// batched is the loop adapter behind Batched.
type batched struct{ s Stream }

// Next implements Stream.
func (b *batched) Next() (Access, bool) { return b.s.Next() }

// NextBatch implements BatchStream.
func (b *batched) NextBatch(buf []Access) int {
	for i := range buf {
		a, ok := b.s.Next()
		if !ok {
			return i
		}
		buf[i] = a
	}
	return len(buf)
}

// Close forwards to the wrapped stream when it supports closing.
func (b *batched) Close() { closeStream(b.s) }

// closeStream closes s if it supports closing.
func closeStream(s Stream) {
	if c, ok := s.(interface{ Close() }); ok {
		c.Close()
	}
}

// Func adapts a closure into a Stream.
type Func func() (Access, bool)

// Next implements Stream.
func (f Func) Next() (Access, bool) { return f() }

// NextBatch implements BatchStream by looping the closure, so every
// Func-based stream is batch-capable (the consumer-side dispatch is
// amortized; generators with a native bulk fill go further).
func (f Func) NextBatch(buf []Access) int {
	for i := range buf {
		a, ok := f()
		if !ok {
			return i
		}
		buf[i] = a
	}
	return len(buf)
}

// limitStream truncates a stream after n accesses; see Limit.
type limitStream struct {
	s    BatchStream
	n    uint64
	seen uint64
}

// Limit wraps s, truncating it after n accesses. The returned stream is
// batch-capable and keeps the truncation exact at batch boundaries: a batch
// request spanning the limit is clipped to exactly the remaining count.
func Limit(s Stream, n uint64) Stream {
	return &limitStream{s: Batched(s), n: n}
}

// Next implements Stream.
func (l *limitStream) Next() (Access, bool) {
	if l.seen >= l.n {
		return Access{}, false
	}
	a, ok := l.s.Next()
	if ok {
		l.seen++
	}
	return a, ok
}

// NextBatch implements BatchStream.
func (l *limitStream) NextBatch(buf []Access) int {
	remaining := l.n - l.seen
	if remaining == 0 {
		return 0
	}
	if uint64(len(buf)) > remaining {
		buf = buf[:remaining]
	}
	k := l.s.NextBatch(buf)
	l.seen += uint64(k)
	return k
}

// Close forwards to the wrapped stream when it supports closing.
func (l *limitStream) Close() { closeStream(l.s) }

// concatStream yields each stream in order; see Concat.
type concatStream struct {
	streams []BatchStream
	i       int
}

// Concat yields each stream in order. The result is batch-capable, and
// closing it closes every sub-stream that supports closing (so abandoning a
// concatenated emitter stream terminates its producer goroutines).
func Concat(streams ...Stream) Stream {
	c := &concatStream{streams: make([]BatchStream, len(streams))}
	for i, s := range streams {
		c.streams[i] = Batched(s)
	}
	return c
}

// Next implements Stream.
func (c *concatStream) Next() (Access, bool) {
	for c.i < len(c.streams) {
		if a, ok := c.streams[c.i].Next(); ok {
			return a, ok
		}
		c.i++
	}
	return Access{}, false
}

// NextBatch implements BatchStream.
func (c *concatStream) NextBatch(buf []Access) int {
	if len(buf) == 0 {
		return 0
	}
	for c.i < len(c.streams) {
		if k := c.streams[c.i].NextBatch(buf); k > 0 {
			return k
		}
		c.i++
	}
	return 0
}

// Close closes every sub-stream that supports closing.
func (c *concatStream) Close() {
	for _, s := range c.streams {
		closeStream(s)
	}
}

// sliceStream replays a materialized access list; see Slice.
type sliceStream struct {
	acc []Access
	i   int
}

// Slice returns a batch-capable Stream over a materialized access list
// (tests, tools, and the vmm benchmarks).
func Slice(accesses []Access) Stream { return &sliceStream{acc: accesses} }

// Next implements Stream.
func (s *sliceStream) Next() (Access, bool) {
	if s.i >= len(s.acc) {
		return Access{}, false
	}
	a := s.acc[s.i]
	s.i++
	return a, true
}

// NextBatch implements BatchStream.
func (s *sliceStream) NextBatch(buf []Access) int {
	k := copy(buf, s.acc[s.i:])
	s.i += k
	return k
}
