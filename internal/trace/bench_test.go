package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchAccesses is the shared input for the decode benchmarks: a realistic
// mix (mostly small forward deltas, occasional jumps, sparse writes and
// thread switches) spanning many blocks. ns/op for every ReplayDecode
// benchmark is ns per replayed access.
func benchAccesses() []Access {
	return columnarMix(64 * BlockAccesses)
}

// BenchmarkReplayDecodeColumnar is the block-format whole-block decode into
// a caller buffer — the path the machine's batch drain uses.
func BenchmarkReplayDecodeColumnar(b *testing.B) {
	benchReplayDecode(b, benchAccesses())
}

// BenchmarkReplayDecodeColumnarGraph is the same decode over a CSR-shaped
// stream, whose blocks take the multi-base layout.
func BenchmarkReplayDecodeColumnarGraph(b *testing.B) {
	benchReplayDecode(b, csrAccesses(64*BlockAccesses))
}

func benchReplayDecode(b *testing.B, accs []Access) {
	rec := RecordBlocks(Slice(accs), 0)
	buf := make([]Access, BlockAccesses)
	b.SetBytes(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		rs := rec.Replay()
		for {
			k := rs.NextBatch(buf)
			if k == 0 {
				break
			}
			n += k
		}
	}
}

// BenchmarkReplayDecodeColumnarBlock is the zero-copy consumption style:
// NextBlock hands out the stream's internal decode buffer in place, the
// path Machine.Run's drain takes when the source is a block replay.
func BenchmarkReplayDecodeColumnarBlock(b *testing.B) {
	accs := benchAccesses()
	rec := RecordBlocks(Slice(accs), 0)
	b.SetBytes(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		rs := rec.Replay()
		for {
			seg := rs.NextBlock(BlockAccesses)
			if len(seg) == 0 {
				break
			}
			n += len(seg)
		}
	}
}

// BenchmarkRecordColumnar measures encode cost (ns per recorded access),
// paid once per cached stream.
func BenchmarkRecordColumnar(b *testing.B) {
	benchRecord(b, benchAccesses())
}

// BenchmarkRecordColumnarGraph is the encode cost of a CSR-shaped stream,
// which runs the multi-base register search over every access.
func BenchmarkRecordColumnarGraph(b *testing.B) {
	benchRecord(b, csrAccesses(64*BlockAccesses))
}

func benchRecord(b *testing.B, accs []Access) {
	b.SetBytes(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(accs) {
		if RecordBlocks(Slice(accs), 0) == nil {
			b.Fatal("record failed")
		}
	}
}

// BenchmarkFileBatchBinary measures the binary trace reader's bulk batch
// path (satellite of the columnar work: one buffered read per 512 records).
func BenchmarkFileBatchBinary(b *testing.B) {
	var raw bytes.Buffer
	if _, err := writeBinary(&raw, UniformRandom(0, 1<<40, 256*1024, rand.New(rand.NewSource(3)))); err != nil {
		b.Fatal(err)
	}
	data := raw.Bytes()
	buf := make([]Access, 1024)
	b.SetBytes(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		fs := readBinary(bytes.NewReader(data))
		for {
			k := fs.NextBatch(buf)
			if k == 0 {
				break
			}
			n += k
		}
		if fs.Err() != nil {
			b.Fatal(fs.Err())
		}
	}
}
