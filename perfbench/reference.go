package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// referenceJSON holds, per workload and seed, the digest of every cell's
// RunResult and Machine.Metrics() counters and of every daemon job's output.
// It pins what the simulator computes. A change that claims a performance
// gain must never regenerate it: a digest that moves means the change
// altered results. Regenerate it (-write-reference) only in a change whose
// purpose is to alter simulation output, and say so in that change.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Note    string                                  `json:"note"`
	Digests map[string]map[string]map[string]string `json:"digests"` // workload -> seed -> item -> digest
}

var references = func() referenceFile {
	var r referenceFile
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("perfbench: embedded reference.json: %v", err))
	}
	return r
}()

// referenceFor returns the committed digests for a workload at a seed, or
// nil when none are committed (always nil for the miniature workloads).
func referenceFor(workload string, seed int64, tiny bool) map[string]string {
	if tiny {
		return nil
	}
	return references.Digests[workload][strconv.FormatInt(seed, 10)]
}

// referenceSeeds is how many seeds (1..n) the reference covers.
const referenceSeeds = 16

const referenceNote = "Digests of every cell's RunResult and Machine.Metrics() and of every daemon job's output, " +
	"per workload and seed. A performance change must never regenerate this file; " +
	"only a change meant to alter simulation results may, and it must say so."

// writeReference recomputes the digests of one untraced figure of every
// workload at seeds 1..referenceSeeds and writes them to o.writeRef.
func writeReference(o options, stdout io.Writer) error {
	out := referenceFile{Note: referenceNote, Digests: map[string]map[string]map[string]string{}}
	for _, def := range workloadDefs {
		out.Digests[def.name] = map[string]map[string]string{}
		for seed := int64(1); seed <= referenceSeeds; seed++ {
			s, err := def.setup(seed, false, &setupStats{}, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", def.name, seed, err)
			}
			f := s.runFigure(false, nil)
			if err := s.close(); err != nil {
				return err
			}
			digests := map[string]string{}
			for _, it := range f.items {
				if it.err != nil {
					return fmt.Errorf("%s seed %d: %s: %w", def.name, seed, it.name, it.err)
				}
				if prev, ok := digests[it.name]; ok && prev != it.digest {
					return fmt.Errorf("%s seed %d: %s: digests %s and %s in one figure", def.name, seed, it.name, prev, it.digest)
				}
				digests[it.name] = it.digest
			}
			out.Digests[def.name][strconv.FormatInt(seed, 10)] = digests
			fmt.Fprintf(stdout, "%s seed %d: %d items\n", def.name, seed, len(digests))
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.writeRef, append(data, '\n'), 0o644)
}
