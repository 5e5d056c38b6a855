package reprand

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand pins the wrapper's transparency: the produced
// stream must be bit-identical to an unwrapped rand.New(rand.NewSource) so
// swapping reprand in changes no simulation output.
func TestStreamMatchesMathRand(t *testing.T) {
	r := New(42)
	plain := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			if got, want := r.Int63(), plain.Int63(); got != want {
				t.Fatalf("draw %d: Int63 %d != %d", i, got, want)
			}
		case 1:
			if got, want := r.Uint64(), plain.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 %d != %d", i, got, want)
			}
		case 2:
			if got, want := r.Float64(), plain.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v != %v", i, got, want)
			}
		case 3:
			if got, want := r.Intn(997), plain.Intn(997); got != want {
				t.Fatalf("draw %d: Intn %d != %d", i, got, want)
			}
		case 4:
			got, want := r.Perm(7), plain.Perm(7)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("draw %d: Perm %v != %v", i, got, want)
				}
			}
		}
	}
}

// TestUint64MatchesMathRandAndCountsOneStep pins the direct Uint64: the
// same values as an unwrapped rand.New(rand.NewSource(seed)).Uint64(), one
// source step per draw, and a stream that other draw kinds continue from
// the right position.
func TestUint64MatchesMathRandAndCountsOneStep(t *testing.T) {
	for _, seed := range []int64{1, 99, -7} {
		r := New(seed)
		plain := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			before := r.Steps()
			if got, want := r.Uint64(), plain.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, got, want)
			}
			if got := r.Steps() - before; got != 1 {
				t.Fatalf("seed %d draw %d: Uint64 advanced Steps by %d, want 1", seed, i, got)
			}
		}
		if got, want := r.Int63(), plain.Int63(); got != want {
			t.Fatalf("seed %d: Int63 after Uint64 draws %d != %d", seed, got, want)
		}
		if got, want := r.Steps(), uint64(2001); got != want {
			t.Fatalf("seed %d: Steps = %d, want %d", seed, got, want)
		}
	}
}

// TestSkipReproducesState is the checkpoint/restore contract: New(seed) +
// Skip(steps) must continue the stream exactly where the original left off,
// across every draw kind.
func TestSkipReproducesState(t *testing.T) {
	for _, seed := range []int64{1, 99, 1_000_003} {
		orig := New(seed)
		for i := 0; i < 333; i++ {
			switch i % 4 {
			case 0:
				orig.Uint64()
			case 1:
				orig.Intn(1 << 20)
			case 2:
				orig.Float64()
			case 3:
				orig.Perm(5)
			}
		}
		restored := New(seed)
		restored.Skip(orig.Steps())
		if got, want := restored.Steps(), orig.Steps(); got != want {
			t.Fatalf("seed %d: Steps after Skip = %d, want %d", seed, got, want)
		}
		for i := 0; i < 100; i++ {
			if got, want := restored.Uint64(), orig.Uint64(); got != want {
				t.Fatalf("seed %d: post-skip draw %d: %d != %d", seed, i, got, want)
			}
			if got, want := restored.Intn(123), orig.Intn(123); got != want {
				t.Fatalf("seed %d: post-skip Intn %d != %d", seed, got, want)
			}
		}
	}
}

// TestZeroSkip checks the trivial restore of a never-used generator.
func TestZeroSkip(t *testing.T) {
	a, b := New(7), New(7)
	b.Skip(0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Skip(0) perturbed the stream")
	}
	if b.Steps() != 1 {
		t.Fatalf("Steps = %d after one draw, want 1", b.Steps())
	}
}
