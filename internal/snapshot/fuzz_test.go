package snapshot_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pccsim/internal/snapshot"
)

// Fuzz targets: the decoder's contract is that ARBITRARY bytes — valid
// snapshots, bit-flipped ones, truncations, checksummed garbage — always
// produce either a Snapshot or one of the four typed errors, and never a
// panic. The seed corpus under testdata/fuzz/ is checked in and regenerated
// with -gencorpus; plain `go test` replays it as unit tests, so a format
// change that breaks decoding of real snapshots fails CI without anyone
// running the fuzzer.

var genCorpus = flag.Bool("gencorpus", false, "regenerate the checked-in fuzz seed corpus from the example sims")

// corpusSeeds builds the seed inputs: one real mid-run snapshot per example
// scenario, plus systematic corruptions of the first one.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	var first []byte
	for _, s := range exampleSims() {
		data, err := snapshot.EncodeBytes(captureMidRun(t, s, 1_500))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		seeds[s.name] = data
		if first == nil {
			first = data
		}
	}
	seeds["truncated-header"] = first[:12]
	seeds["truncated-payload"] = first[:len(first)-9]
	flipped := append([]byte(nil), first...)
	flipped[len(flipped)/2] ^= 0x80
	seeds["flipped-bit"] = flipped
	badMagic := append([]byte(nil), first...)
	badMagic[0] = 'Q'
	seeds["bad-magic"] = badMagic
	badVersion := append([]byte(nil), first...)
	badVersion[8] = 0xfe
	seeds["bad-version"] = badVersion
	seeds["junk"] = []byte("not a snapshot")
	seeds["empty"] = nil
	return seeds
}

// decodeIsTotal is the property both fuzz targets and the corpus regression
// check: Decode returns a snapshot or exactly one typed error, and a
// successful decode re-encodes and re-decodes cleanly.
func decodeIsTotal(t require, data []byte) {
	snap, err := snapshot.DecodeBytes(data)
	if err != nil {
		if !errors.Is(err, snapshot.ErrBadMagic) && !errors.Is(err, snapshot.ErrVersion) &&
			!errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	re, err := snapshot.EncodeBytes(snap)
	if err != nil {
		t.Fatalf("decoded snapshot does not re-encode: %v", err)
	}
	if _, err := snapshot.DecodeBytes(re); err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
}

// require is the subset of testing.T/testing.F shared by tests and fuzz
// bodies.
type require interface {
	Fatalf(format string, args ...any)
}

// FuzzSnapshotDecode throws arbitrary bytes at the decoder.
func FuzzSnapshotDecode(f *testing.F) {
	for _, data := range corpusSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeIsTotal(t, data)
	})
}

// FuzzSnapshotRoundTrip fuzzes the capture point itself: any scenario
// checkpointed at any cut must encode deterministically and survive a
// decode/re-encode round trip byte-for-byte.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(1))
	f.Add(uint8(1), uint16(999))
	f.Add(uint8(2), uint16(1_000))
	f.Add(uint8(3), uint16(1_001))
	f.Add(uint8(4), uint16(512))
	f.Add(uint8(5), uint16(2_500))
	f.Fuzz(func(t *testing.T, which uint8, cut uint16) {
		sims := exampleSims()
		s := sims[int(which)%len(sims)]
		snap := captureMidRun(t, s, uint64(cut%4_000)+1)
		data, err := snapshot.EncodeBytes(snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := snapshot.DecodeBytes(data)
		if err != nil {
			t.Fatalf("valid snapshot failed to decode: %v", err)
		}
		re, err := snapshot.EncodeBytes(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, re) {
			t.Error("decode/re-encode round trip changed the bytes")
		}
	})
}

// TestSeedCorpusCheckedIn regenerates (with -gencorpus) or verifies the
// committed corpus under testdata/fuzz/FuzzSnapshotDecode: every generated
// seed must be on disk with exactly the bytes -gencorpus writes, and every
// seed-* file on disk must have a generator entry. FuzzSnapshotDecode
// replays each file through the decoder under plain go test.
func TestSeedCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	want := map[string][]byte{}
	for name, data := range corpusSeeds(t) {
		want["seed-"+name] = []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))))
	}
	if *genCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range want {
			if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, body := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%v (regenerate with -gencorpus)", err)
		} else if !bytes.Equal(got, body) {
			t.Errorf("%s differs from what -gencorpus writes (regenerate with -gencorpus)", name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seed-") && want[e.Name()] == nil {
			t.Errorf("%s has no generator entry; delete it or add it to corpusSeeds", e.Name())
		}
	}
}
