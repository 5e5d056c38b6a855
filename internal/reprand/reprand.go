// Package reprand wraps math/rand with a source step counter so a
// generator's exact position in its stream can be captured and reproduced.
//
// math/rand's generator state is not exported and (unlike math/rand/v2's
// ChaCha8/PCG) implements no binary marshaling, but it does not need to be
// copied to be serialized: every top-level draw (Int63, Uint64, Intn,
// Float64, Perm, ...) consumes a deterministic number of source steps, and
// each step advances the additive-lagged-Fibonacci source by exactly one
// position regardless of whether it was an Int63 or a Uint64 call. The pair
// (seed, steps) therefore pins the complete generator state: rebuilding the
// source from the seed and discarding steps draws reproduces the stream
// bit-for-bit. Checkpoint/restore serializes that pair instead of the
// internal feedback register.
//
// The wrapper intentionally does not support Read: Rand.Read buffers partial
// draws in the *rand.Rand, which the step counter cannot see.
package reprand

import "math/rand"

// Rand is a deterministic PRNG with a serializable stream position. The
// embedded *rand.Rand provides the full math/rand API (minus Read; see the
// package comment).
type Rand struct {
	*rand.Rand
	src *counting
}

// counting interposes on the raw source, counting steps. math/rand's
// rngSource advances one position per Int63 or Uint64 call (Int63 is
// Uint64 masked), so one counter covers both entry points.
type counting struct {
	src   rand.Source64
	steps uint64
}

func (c *counting) Int63() int64 {
	c.steps++
	return c.src.Int63()
}

func (c *counting) Uint64() uint64 {
	c.steps++
	return c.src.Uint64()
}

func (c *counting) Seed(seed int64) {
	c.src.Seed(seed)
	c.steps = 0
}

// New returns a generator seeded like rand.New(rand.NewSource(seed)) — the
// produced stream is identical to the unwrapped one.
func New(seed int64) *Rand {
	c := &counting{src: rand.NewSource(seed).(rand.Source64)}
	return &Rand{Rand: rand.New(c), src: c}
}

// Uint64 returns the next 64-bit value, as rand.Rand.Uint64 does over a
// Source64, in one source step. It calls the counted source directly
// instead of going through the embedded rand.Rand and the counting
// wrapper's Source64 interface: the hot draw of HawkEye's page sampler.
func (r *Rand) Uint64() uint64 {
	r.src.steps++
	return r.src.src.Uint64()
}

// Steps returns the number of source steps consumed so far.
func (r *Rand) Steps() uint64 { return r.src.steps }

// Skip advances the generator by n source steps without producing values —
// the restore path: New(seed) followed by Skip(steps) reproduces a
// checkpointed generator exactly.
func (r *Rand) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		r.src.src.Uint64()
	}
	r.src.steps += n
}
