package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pccsim/internal/mem"
)

func sampleAccesses() []Access {
	return []Access{
		{Addr: 0x1000},
		{Addr: 0x7f0000002040, Write: true, Thread: 3},
		{Addr: 0x2000, Thread: 1},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := writeText(&buf, Slice(sampleAccesses()))
	if err != nil || n != 3 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	fs := readText(&buf)
	got := drainNext(fs, 10)
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
	want := sampleAccesses()
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n0x1000 r 0\n  \n# another\n4096 w 2\n"
	fs := readText(strings.NewReader(in))
	got := drainNext(fs, 10)
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[1].Addr != 4096 || !got[1].Write || got[1].Thread != 2 {
		t.Errorf("parsed %+v", got[1])
	}
}

func TestTextMalformedAddress(t *testing.T) {
	fs := readText(strings.NewReader("zzz r 0\n"))
	if _, ok := fs.Next(); ok {
		t.Fatal("malformed line must end the stream")
	}
	if fs.Err() == nil {
		t.Fatal("error must be surfaced")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := writeBinary(&buf, Slice(sampleAccesses()))
	if err != nil || n != 3 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	fs := readBinary(&buf)
	got := drainNext(fs, 10)
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
	want := sampleAccesses()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	fs := readBinary(bytes.NewReader([]byte("NOTATRACE........")))
	if _, ok := fs.Next(); ok {
		t.Fatal("bad magic must fail")
	}
	if fs.Err() == nil {
		t.Fatal("error must be surfaced")
	}
}

func TestOpenFileSniffsFormat(t *testing.T) {
	dir := t.TempDir()

	textPath := filepath.Join(dir, "t.trace")
	var tb bytes.Buffer
	if _, err := writeText(&tb, Slice(sampleAccesses())); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	binPath := filepath.Join(dir, "b.trace")
	var bb bytes.Buffer
	if _, err := writeBinary(&bb, Slice(sampleAccesses())); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, bb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{textPath, binPath} {
		fs, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := drainNext(fs, 10)
		if fs.Err() != nil {
			t.Fatalf("%s: %v", path, fs.Err())
		}
		if len(got) != 3 || got[0].Addr != 0x1000 {
			t.Errorf("%s: got %+v", path, got)
		}
		fs.Close()
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestBinaryLargeThreadIDs(t *testing.T) {
	// Thread ids are 7 bits in the binary format.
	in := []Access{{Addr: 0x1000, Thread: 127}, {Addr: 0x2000, Thread: 5, Write: true}}
	var buf bytes.Buffer
	if _, err := writeBinary(&buf, Slice(in)); err != nil {
		t.Fatal(err)
	}
	got := drainNext(readBinary(&buf), 4)
	if got[0].Thread != 127 || got[1].Thread != 5 || !got[1].Write {
		t.Errorf("got %+v", got)
	}
}

func TestExportedStreamReplaysThroughSimPath(t *testing.T) {
	// A synthetic stream exported and re-imported must behave like the
	// original (spot-check the page set).
	orig := Sequential(0x4000_0000, 1<<20, 256, 1000)
	var buf bytes.Buffer
	if _, err := writeBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	pages := map[mem.PageNum]bool{}
	fs := readBinary(&buf)
	for {
		a, ok := fs.Next()
		if !ok {
			break
		}
		pages[mem.PageNumber(a.Addr, mem.Page4K)] = true
	}
	want := Sequential(0x4000_0000, 1<<20, 256, 1000)
	for {
		a, ok := want.Next()
		if !ok {
			break
		}
		if !pages[mem.PageNumber(a.Addr, mem.Page4K)] {
			t.Fatalf("page %#x missing after round trip", uint64(a.Addr))
		}
	}
}

// TestBinaryBatchMatchesNext pins NextBatch's bulk-read path against the
// per-record Next path: same records, same clean-EOF and mid-record-cut
// semantics, at batch sizes that land on and off chunk boundaries.
func TestBinaryBatchMatchesNext(t *testing.T) {
	accs := columnarMix(3*binaryBatchRecords + 41)
	var buf bytes.Buffer
	if _, err := writeBinary(&buf, Slice(accs)); err != nil {
		t.Fatal(err)
	}
	// The binary format narrows threads to 7 bits; mask the expectation.
	for i := range accs {
		accs[i].Thread &= 0x7f
	}
	raw := buf.Bytes()

	for _, size := range []int{1, 7, binaryBatchRecords, binaryBatchRecords + 1, 4 * binaryBatchRecords} {
		fs := readBinary(bytes.NewReader(raw))
		var got []Access
		b := make([]Access, size)
		for {
			k := fs.NextBatch(b)
			if k == 0 {
				break
			}
			got = append(got, b[:k]...)
		}
		if fs.Err() != nil {
			t.Fatalf("size=%d: clean stream errored: %v", size, fs.Err())
		}
		if len(got) != len(accs) {
			t.Fatalf("size=%d: got %d records, want %d", size, len(got), len(accs))
		}
		for i := range got {
			if got[i] != accs[i] {
				t.Fatalf("size=%d: record %d = %+v, want %+v", size, i, got[i], accs[i])
			}
		}
	}

	// Truncation mid-record must surface an error from the batch path, just
	// as Next reports it.
	fs := readBinary(bytes.NewReader(raw[:len(raw)-4]))
	b := make([]Access, 64)
	n := 0
	for {
		k := fs.NextBatch(b)
		if k == 0 {
			break
		}
		n += k
	}
	if fs.Err() == nil {
		t.Fatal("mid-record truncation must surface an error")
	}
	if want := (len(raw) - len(binaryMagic) - 4) / 9; n != want {
		t.Fatalf("truncated stream yielded %d whole records, want %d", n, want)
	}

	// Truncation on a record boundary is a clean (silent) EOF.
	fs = readBinary(bytes.NewReader(raw[:len(raw)-18]))
	for fs.NextBatch(b) != 0 {
	}
	if fs.Err() != nil {
		t.Fatalf("record-boundary truncation must be a clean EOF, got %v", fs.Err())
	}
}

// TestBinaryBatchSteadyStateAllocs: after the first call warms the staging
// buffer, batching allocates nothing per call.
func TestBinaryBatchSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeBinary(&buf, Sequential(0, 1<<24, 64, 200_000)); err != nil {
		t.Fatal(err)
	}
	fs := readBinary(bytes.NewReader(buf.Bytes()))
	b := make([]Access, 1024)
	if fs.NextBatch(b) == 0 { // warm-up: magic + staging buffer
		t.Fatal("empty first batch")
	}
	avg := testing.AllocsPerRun(100, func() {
		if fs.NextBatch(b) == 0 {
			t.Fatal("stream exhausted mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("NextBatch allocates %.1f/op in steady state, want 0", avg)
	}
}
