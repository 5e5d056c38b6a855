// Package difftest is the resume-equivalence harness: it re-runs experiment
// figures with every simulation routed through a checkpoint/serialize/
// restore cycle at a seeded pseudo-random cut point (experiments'
// Options.SnapshotCut), and checks the rendered reports are byte-identical
// to the uninterrupted runs. Combined with the goldens matrix — worker
// counts, trace cache on/off — this pins the full determinism contract:
// snapshot/resume is invisible at every layer the repo promises
// byte-identical output across. Every cut run resumes through
// StartRun/RunUntil/FinishRun.
package difftest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"pccsim/internal/experiments"
)

// Cutter returns a deterministic cut chooser for Options.SnapshotCut: each
// run name hashes (with the seed) to a fixed cut in [1, maxCut]. Different
// seeds scatter the cuts differently, so sweeping seeds sweeps cut points
// across batch edges, tick boundaries and stream ends; a cut past a short
// run's end checkpoints the finished machine, which must round-trip too.
func Cutter(seed int64, maxCut uint64) func(name string) uint64 {
	if maxCut == 0 {
		maxCut = 1
	}
	return func(name string) uint64 {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(seed))
		h.Write(b[:])
		h.Write([]byte(name))
		return h.Sum64()%maxCut + 1
	}
}

// RunFigure runs one registered figure and returns its rendered report.
func RunFigure(fig string, o experiments.Options) ([]byte, error) {
	var buf bytes.Buffer
	o.Out = &buf
	if err := experiments.Run(fig, o); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CheckFigure runs fig with snapshot cuts (seeded as given) and verifies the
// report equals want — typically the committed golden or a fresh
// uninterrupted run. o must arrive without SnapshotCut set. A figure that
// never consults SnapshotCut fails the check: none of its simulations went
// through a checkpoint, so an equal report would prove nothing.
func CheckFigure(fig string, o experiments.Options, want []byte, seed int64, maxCut uint64) error {
	var consulted atomic.Bool
	cut := Cutter(seed, maxCut)
	o.SnapshotCut = func(name string) uint64 {
		consulted.Store(true)
		return cut(name)
	}
	got, err := RunFigure(fig, o)
	if err != nil {
		return err
	}
	if !consulted.Load() {
		return fmt.Errorf("difftest: %s never consulted SnapshotCut, so none of its simulations was cut", fig)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("difftest: %s output with snapshot cuts (seed %d) diverged from the uninterrupted run", fig, seed)
	}
	return nil
}
