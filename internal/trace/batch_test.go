package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
)

// drainNext drains s one access at a time (the historical consumer loop).
func drainNext(s Stream, max int) []Access {
	var out []Access
	for len(out) < max {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// drainBatch drains s via NextBatch with a varying batch size, exercising
// short and long requests against chunk boundaries.
func drainBatch(s Stream, max int) []Access {
	bs := Batched(s)
	sizes := []int{1, 3, 7, 64, 1024}
	var out []Access
	for i := 0; len(out) < max; i++ {
		want := sizes[i%len(sizes)]
		if left := max - len(out); want > left {
			want = left
		}
		buf := make([]Access, want)
		k := bs.NextBatch(buf)
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	return out
}

// nextOnly hides a stream's NextBatch so Batched must wrap it with the loop
// adapter.
type nextOnly struct{ s Stream }

func (n *nextOnly) Next() (Access, bool) { return n.s.Next() }

// TestBatchedAdapterRoundTrip checks the loop adapter produces exactly the
// sequence the wrapped stream's Next would, mixed Next/NextBatch included.
func TestBatchedAdapterRoundTrip(t *testing.T) {
	mk := func() []Access {
		accs := make([]Access, 100)
		for i := range accs {
			accs[i] = Access{Addr: mem.VirtAddr(i * 64), Thread: i % 3, Write: i%2 == 0}
		}
		return accs
	}
	want := mk()

	bs := Batched(&nextOnly{s: Slice(mk())})
	if _, isNative := interface{}(&nextOnly{}).(BatchStream); isNative {
		t.Fatal("nextOnly must not implement BatchStream")
	}
	var got []Access
	// Mix single and batched pulls.
	for len(got) < len(want) {
		if len(got)%2 == 0 {
			a, ok := bs.Next()
			if !ok {
				break
			}
			got = append(got, a)
		} else {
			buf := make([]Access, 7)
			k := bs.NextBatch(buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adapter sequence diverged: got %d accesses", len(got))
	}
	if bs.NextBatch(make([]Access, 4)) != 0 {
		t.Error("exhausted adapter must keep returning 0")
	}
	if bs.NextBatch(nil) != 0 {
		t.Error("zero-length buffer must return 0")
	}

	// A native BatchStream passes through Batched unchanged.
	s := Slice(nil)
	if Batched(s) != s.(BatchStream) {
		t.Error("Batched must return native BatchStreams unchanged")
	}
}

// TestLimitBatchBoundaries pins the exact-truncation contract: a batch
// request spanning the limit is clipped to exactly the remaining count.
func TestLimitBatchBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		limit uint64
		batch int
		want  []int // accesses returned per NextBatch call until 0
	}{
		{"limit mid-batch", 10, 8, []int{8, 2}},
		{"limit equals batch", 8, 8, []int{8}},
		{"limit zero", 0, 8, nil},
		{"limit one", 1, 8, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bs := Batched(Limit(Sequential(0, 1<<20, 64, 1000), tc.limit))
			var got []int
			total := uint64(0)
			for {
				buf := make([]Access, tc.batch, tc.batch+4)
				k := bs.NextBatch(buf)
				if k == 0 {
					break
				}
				got = append(got, k)
				total += uint64(k)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("batch sizes = %v, want %v", got, tc.want)
			}
			if total != tc.limit {
				t.Errorf("total = %d, want %d", total, tc.limit)
			}
			if _, ok := bs.Next(); ok {
				t.Error("exhausted limit must stay exhausted under Next too")
			}
		})
	}
}

// TestGeneratorsBatchMatchesNext proves every synthetic generator's native
// bulk fill replays the identical sequence its per-access path produces,
// combinators included. Identical generator constructions consume their RNG
// in the same order either way, so the sequences must match exactly.
func TestGeneratorsBatchMatchesNext(t *testing.T) {
	const n = 4096
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	gens := map[string]func() Stream{
		"sequential": func() Stream { return Sequential(0x1000, 1<<22, 64, n) },
		"uniform":    func() Stream { return UniformRandom(0x1000, 1<<22, n, rng(7)) },
		"zipf":       func() Stream { return Zipf(0x1000, 1<<22, 1.1, n, rng(7)) },
		"hotcold":    func() Stream { return HotCold(0x1000, 1<<22, 1<<18, 0.9, n, rng(7)) },
		"chase":      func() Stream { return PointerChase(0x1000, 1<<22, n, rng(7)) },
		"mix": func() Stream {
			return Mix(rng(7), []float64{1, 2},
				Sequential(0, 1<<20, 64, 3000),
				UniformRandom(1<<21, 1<<20, 2000, rng(3)),
			)
		},
		"threads": func() Stream { return Limit(Slice(threadRuns(5000, 100)), 3350) },
		"concat": func() Stream {
			return Concat(
				Sequential(0, 1<<20, 64, 777),
				UniformRandom(1<<21, 1<<20, 500, rng(3)),
			)
		},
	}
	for name, mk := range gens {
		t.Run(name, func(t *testing.T) {
			want := drainNext(mk(), n+1)
			got := drainBatch(mk(), n+1)
			if len(want) == 0 {
				t.Fatal("generator produced nothing")
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("sequence diverges at %d: got %+v want %+v (lens %d/%d)",
							i, got[min(i, len(got)-1)], want[i], len(got), len(want))
					}
				}
				t.Fatalf("batch drain longer than next drain: %d > %d", len(got), len(want))
			}
		})
	}
}
