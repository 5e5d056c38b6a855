package workloads

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// emitN runs a producer that touches n distinct addresses.
func emitN(n int) trace.Stream {
	return NewStream(func(e *E) {
		for i := 0; i < n; i++ {
			e.TouchT(mem.VirtAddr(i*64), i%4)
		}
	})
}

// TestEmitterBatchMatchesNext proves the bulk NextBatch path hands out the
// exact sequence the per-access Next path does, across chunk boundaries and
// with odd batch sizes that straddle them.
func TestEmitterBatchMatchesNext(t *testing.T) {
	const n = 3*(1<<14) + 123 // three full chunks plus a partial tail
	want := collect(emitN(n), n+1)
	if len(want) != n {
		t.Fatalf("Next drain produced %d accesses, want %d", len(want), n)
	}

	bs, ok := emitN(n).(trace.BatchStream)
	if !ok {
		t.Fatal("emitter stream must implement trace.BatchStream")
	}
	var got []trace.Access
	buf := make([]trace.Access, 1000) // never divides the chunk size evenly
	for {
		k := bs.NextBatch(buf)
		if k == 0 {
			break
		}
		got = append(got, buf[:k]...)
	}
	if len(got) != n {
		t.Fatalf("NextBatch drain produced %d accesses, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence diverges at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if bs.NextBatch(buf) != 0 {
		t.Error("exhausted emitter must keep returning 0")
	}
}

// TestEmitterMixedNextAndBatch exercises switching between the two pull
// styles mid-chunk.
func TestEmitterMixedNextAndBatch(t *testing.T) {
	const n = 1<<14 + 500
	want := collect(emitN(n), n+1)
	bs := emitN(n).(trace.BatchStream)
	var got []trace.Access
	buf := make([]trace.Access, 333)
	for i := 0; ; i++ {
		if i%2 == 0 {
			a, ok := bs.Next()
			if !ok {
				break
			}
			got = append(got, a)
		} else {
			k := bs.NextBatch(buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
	}
	if len(got) != n {
		t.Fatalf("mixed drain produced %d accesses, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence diverges at %d", i)
		}
	}
}

// BenchmarkEmitChunk measures steady-state emission of one full chunk
// through the producer/consumer pipe. The free-list recycling must make this
// allocation-free once the pipe is warm: the reported allocs/op is the
// per-chunk producer cost (amortized; one op = one access, chunkSize
// accesses per chunk).
func BenchmarkEmitChunk(b *testing.B) {
	s := NewStream(func(e *E) {
		for i := 0; ; i++ {
			e.TouchT(mem.VirtAddr(i&0xffff)*64, 0)
		}
	})
	defer CloseStream(s)
	bs := s.(trace.BatchStream)
	buf := make([]trace.Access, chunkSize)
	// Warm the pipe so the free list is populated before measuring.
	for warm := 0; warm < 16*chunkSize; {
		k := bs.NextBatch(buf)
		if k == 0 {
			b.Fatal("producer ended early")
		}
		warm += k
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for n < b.N {
		k := bs.NextBatch(buf)
		if k == 0 {
			b.Fatal("producer ended early")
		}
		n += k
	}
}
