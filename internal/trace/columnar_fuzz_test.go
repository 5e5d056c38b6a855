package trace

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pccsim/internal/mem"
)

// The columnar decoder consumes bytes that normally come from our own
// encoder, but parseBlockRecording accepts arbitrary input — so decode must
// be total: typed errors, never panics, matching the internal/snapshot
// convention.
// The seed corpus under testdata/fuzz/ is checked in and regenerated with
// -gencorpus; plain `go test` replays it as unit tests, so a format change
// that breaks decoding — or lets malformed bytes panic — fails CI without
// anyone running the fuzzer.

var genColumnarCorpus = flag.Bool("gencorpus", false, "regenerate the checked-in columnar fuzz seed corpus")

// columnarDecodeIsTotal feeds data to the parser and pins the totality
// property: no panic (implicit), typed error or success, and on success the
// parsed recording replays cleanly and re-serializes to the same bytes.
func columnarDecodeIsTotal(t *testing.T, data []byte) {
	t.Helper()
	rec, err := parseBlockRecording(data)
	if err != nil {
		if !errors.Is(err, ErrColumnarMagic) && !errors.Is(err, ErrColumnarTruncated) &&
			!errors.Is(err, ErrColumnarCorrupt) {
			t.Fatalf("parseBlockRecording returned an untyped error: %v", err)
		}
		return
	}
	// Accepted input must replay without error and round-trip bytes.
	rs := rec.Replay()
	var n uint64
	buf := make([]Access, 1024)
	for {
		k := rs.NextBatch(buf)
		if k == 0 {
			break
		}
		n += uint64(k)
	}
	if n != rec.Accesses() {
		t.Fatalf("replay produced %d accesses, recording claims %d", n, rec.Accesses())
	}
	if !bytes.Equal(rec.marshal(), data) {
		t.Fatal("parse → serialize is not byte-identical on accepted input")
	}
	rec.Stats() // must not panic either
}

// FuzzColumnarRoundTrip fuzzes the container parser with arbitrary bytes.
func FuzzColumnarRoundTrip(f *testing.F) {
	for _, data := range columnarCorpusSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		columnarDecodeIsTotal(t, data)
	})
}

// FuzzColumnarEncode fuzzes the encode side: any access tuple sequence must
// survive RecordBlocks → Replay exactly, and its container must re-parse.
// After the four fuzzed accesses comes a block's worth of strided accesses
// alternating between addr1 and addr2 (and wrapping around the address
// space), so the multi-base layout and its selection are fuzzed too.
func FuzzColumnarEncode(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x2000), 3, true)
	f.Add(uint64(1)<<63, uint64(0), 127, false)
	f.Add(^uint64(0), uint64(1), 0, true)
	f.Add(uint64(0x3f80_0000_0000), uint64(0x3f80_4000_0000), 0, false)
	f.Fuzz(func(t *testing.T, addr1, addr2 uint64, thread int, write bool) {
		if thread < 0 {
			thread = -thread
		}
		accs := []Access{
			{Addr: mem.VirtAddr(addr1)},
			{Addr: mem.VirtAddr(addr2), Thread: thread, Write: write},
			{Addr: mem.VirtAddr(addr1 ^ addr2), Thread: thread / 2},
			{Addr: mem.VirtAddr(addr2), Write: !write},
		}
		for i := uint64(0); i < BlockAccesses; i++ {
			a := addr1 + 8*i
			if i&1 != 0 {
				a = addr2 - 64*i
			}
			accs = append(accs, Access{Addr: mem.VirtAddr(a), Write: write && i%7 == 0})
		}
		rec := RecordBlocks(Slice(accs), 0)
		if rec == nil {
			t.Fatal("unlimited RecordBlocks returned nil")
		}
		got := collectStream(rec.Replay())
		if len(got) != len(accs) {
			t.Fatalf("replay count %d, want %d", len(got), len(accs))
		}
		for i := range accs {
			if got[i] != accs[i] {
				t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], accs[i])
			}
		}
		columnarDecodeIsTotal(t, rec.marshal())
	})
}

// columnarCorpusSeeds builds the seed inputs: valid containers of varied
// shape plus systematically damaged ones.
func columnarCorpusSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	add := func(name string, accs []Access) {
		seeds["valid-"+name] = RecordBlocks(Slice(accs), 0).marshal()
	}
	add("empty", nil)
	add("one", []Access{{Addr: 0x1000, Thread: 2, Write: true}})
	add("seq", drainNext(Sequential(1<<30, 1<<20, 64, 5000), 5000))
	add("mixed", columnarMix(BlockAccesses+300))
	add("threads", threadRuns(4000, 64))
	add("multibase", csrAccesses(BlockAccesses+300))

	full := seeds["valid-mixed"]
	seeds["bad-magic"] = append([]byte("XXXXXXXX"), full[8:]...)
	seeds["truncated-header"] = full[:9]
	seeds["truncated-block"] = full[:len(full)-len(full)/3]
	corrupt := append([]byte{}, full...)
	corrupt[len(corrupt)/2] ^= 0xff
	seeds["bitflip"] = corrupt
	seeds["trailing"] = append(append([]byte{}, full...), 0xde, 0xad)
	seeds["random"] = func() []byte {
		rng := rand.New(rand.NewSource(7))
		b := make([]byte, 512)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return append([]byte(columnarMagic), b...)
	}()
	return seeds
}

// TestColumnarSeedCorpusCheckedIn regenerates (with -gencorpus) or verifies
// the committed corpus under testdata/fuzz/FuzzColumnarRoundTrip: every
// generated seed must be on disk with exactly the bytes -gencorpus writes,
// and every seed-* file on disk must have a generator entry.
// FuzzColumnarRoundTrip replays each file through the parser under plain
// go test.
func TestColumnarSeedCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzColumnarRoundTrip")
	want := map[string][]byte{}
	for name, data := range columnarCorpusSeeds() {
		want["seed-"+name] = []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))))
	}
	if *genColumnarCorpus {
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
			t.Errorf("%s has no generator entry; delete it or add it to columnarCorpusSeeds", e.Name())
		}
	}
}
