// Package workloads implements the paper's evaluation applications as
// address-emitting programs: the GAP graph kernels (BFS, SSSP, PageRank)
// executed natively over real CSR graphs while emitting the virtual
// addresses the algorithm's data structures would occupy, plus
// locality-calibrated models of the PARSEC/SPEC workloads (canneal, dedup,
// mcf, omnetpp, xalancbmk) whose binaries are unavailable offline.
package workloads

import (
	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// chunkSize is the number of accesses buffered between the producer
// goroutine and the consuming simulator. One channel operation per chunk
// keeps emission overhead negligible.
const chunkSize = 1 << 14

// E is the emission context handed to a workload body. The body calls
// Touch/TouchW for every data-structure reference it performs; the emitter
// batches them into chunks for the consumer. Emission aborts (via panic
// recovered in the producer) when the consumer closes the stream early.
type E struct {
	buf  []trace.Access
	ch   chan []trace.Access
	stop chan struct{}
	// free recycles fully-consumed chunks back from the consumer, so
	// steady-state emission allocates nothing: the producer only falls back
	// to make() while the free list warms up.
	free chan []trace.Access
}

type stopEmission struct{}

// TouchW emits a write of addr on thread 0.
func (e *E) TouchW(addr mem.VirtAddr) { e.emit(addr, 0, true) }

// TouchT emits a read of addr attributed to the given simulated thread.
func (e *E) TouchT(addr mem.VirtAddr, thread int) { e.emit(addr, thread, false) }

// TouchWT emits a write of addr attributed to the given simulated thread.
func (e *E) TouchWT(addr mem.VirtAddr, thread int) { e.emit(addr, thread, true) }

func (e *E) emit(addr mem.VirtAddr, thread int, write bool) {
	e.buf = append(e.buf, trace.Access{Addr: addr, Thread: thread, Write: write})
	if len(e.buf) >= chunkSize {
		e.flush()
	}
}

func (e *E) flush() {
	if len(e.buf) == 0 {
		return
	}
	select {
	case e.ch <- e.buf:
	case <-e.stop:
		panic(stopEmission{})
	}
	select {
	case b := <-e.free:
		e.buf = b
	default:
		e.buf = make([]trace.Access, 0, chunkSize)
	}
}

// emitterStream adapts the producer goroutine to trace.Stream and
// trace.BatchStream.
type emitterStream struct {
	ch   chan []trace.Access
	stop chan struct{}
	free chan []trace.Access
	cur  []trace.Access
	pos  int
	done bool
}

// NewStream runs body in a producer goroutine and returns the resulting
// access stream. The stream implements Close(); closing it early unblocks
// and terminates the producer. It also implements trace.BatchStream: the
// internal 16K-access chunks are handed to NextBatch callers as bulk
// copies instead of being flattened back into one-at-a-time Next calls.
func NewStream(body func(*E)) trace.Stream {
	s := &emitterStream{
		ch:   make(chan []trace.Access, 4),
		stop: make(chan struct{}),
		free: make(chan []trace.Access, 8),
	}
	go func() {
		e := &E{buf: make([]trace.Access, 0, chunkSize), ch: s.ch, stop: s.stop, free: s.free}
		defer close(s.ch)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopEmission); !ok {
					panic(r)
				}
			}
		}()
		body(e)
		e.flush()
	}()
	return s
}

// recycle returns the fully-consumed current chunk to the producer's free
// list (dropped if the list is full) and clears the cursor.
func (s *emitterStream) recycle() {
	select {
	case s.free <- s.cur[:0]:
	default:
	}
	s.cur, s.pos = nil, 0
}

// Next implements trace.Stream.
func (s *emitterStream) Next() (trace.Access, bool) {
	for {
		if s.pos < len(s.cur) {
			a := s.cur[s.pos]
			s.pos++
			if s.pos == len(s.cur) {
				s.recycle()
			}
			return a, true
		}
		if s.done {
			return trace.Access{}, false
		}
		chunk, ok := <-s.ch
		if !ok {
			s.done = true
			return trace.Access{}, false
		}
		s.cur, s.pos = chunk, 0
	}
}

// NextBatch implements trace.BatchStream: it hands out the buffered chunk in
// bulk (one copy per call instead of one interface dispatch per access).
func (s *emitterStream) NextBatch(buf []trace.Access) int {
	if len(buf) == 0 {
		return 0
	}
	for {
		if s.pos < len(s.cur) {
			k := copy(buf, s.cur[s.pos:])
			s.pos += k
			if s.pos == len(s.cur) {
				s.recycle()
			}
			return k
		}
		if s.done {
			return 0
		}
		chunk, ok := <-s.ch
		if !ok {
			s.done = true
			return 0
		}
		s.cur, s.pos = chunk, 0
	}
}

// Close terminates the producer goroutine if it is still running and drops
// any buffered accesses; the stream reads as exhausted afterwards. Safe to
// call multiple times.
func (s *emitterStream) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// Drain to let a producer blocked on send observe stop.
	for range s.ch {
	}
	s.cur, s.pos = nil, 0
	s.done = true
}

// CloseStream closes s if it supports closing (early-terminated consumers
// should always call this to avoid leaking producer goroutines).
func CloseStream(s trace.Stream) {
	if c, ok := s.(interface{ Close() }); ok {
		c.Close()
	}
}
