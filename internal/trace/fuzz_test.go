package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pccsim/internal/mem"
)

// collect drains a file stream, failing the fuzz run on any invariant the
// parser must uphold regardless of input: no panics (implicit), and never an
// access that would crash a consumer (negative thread id).
func collect(t *testing.T, fs *FileStream) []Access {
	var accs []Access
	for {
		a, ok := fs.Next()
		if !ok {
			break
		}
		if a.Thread < 0 {
			t.Fatalf("parser produced negative thread id %d", a.Thread)
		}
		accs = append(accs, a)
	}
	return accs
}

// FuzzParseTextTrace feeds arbitrary bytes to the text parser. Inputs the
// parser accepts in full must round-trip: serialize → reparse → reserialize
// is byte-identical.
func FuzzParseTextTrace(f *testing.F) {
	f.Add([]byte("0x1000 r 0\n0x2000 w 3\n# comment\n\n4096\n"))
	f.Add([]byte("0x7fff8000 w\n"))
	f.Add([]byte("deadbeef r 1\n"))
	f.Add([]byte("0x1 r -1\n"))
	f.Add([]byte("0x1 r 99999999999999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := ReadText(bytes.NewReader(data))
		accs := collect(t, fs)
		if fs.Err() != nil {
			return // malformed input, rejected cleanly
		}
		var first bytes.Buffer
		if _, err := WriteText(&first, Slice(accs)); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		re := ReadText(bytes.NewReader(first.Bytes()))
		reaccs := collect(t, re)
		if err := re.Err(); err != nil {
			t.Fatalf("reparsing our own text output failed: %v", err)
		}
		var second bytes.Buffer
		if _, err := WriteText(&second, Slice(reaccs)); err != nil {
			t.Fatalf("WriteText (second): %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("text round-trip not byte-identical:\n%q\nvs\n%q", first.Bytes(), second.Bytes())
		}
	})
}

// collectStream drains any stream (fuzz helper).
func collectStream(s Stream) []Access {
	var out []Access
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// FuzzParseBinaryTrace feeds arbitrary bytes to the binary parser, then
// checks the same serialize/reparse/reserialize fixpoint on accepted input.
func FuzzParseBinaryTrace(f *testing.F) {
	valid := func(accs []Access) []byte {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, Slice(accs)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(nil))
	f.Add(valid([]Access{{Addr: 0x1000}, {Addr: 0x2000, Write: true, Thread: 3}}))
	f.Add([]byte("PCCTRC1\n\x00\x01\x02")) // truncated record
	f.Add([]byte("not a trace"))
	f.Add(binary.LittleEndian.AppendUint64([]byte("PCCTRC1\n"), uint64(mem.VirtAddr(1<<47))))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := ReadBinary(bytes.NewReader(data))
		accs := collect(t, fs)
		if fs.Err() != nil {
			return
		}
		first := valid(accs)
		re := ReadBinary(bytes.NewReader(first))
		reaccs := collect(t, re)
		if err := re.Err(); err != nil {
			t.Fatalf("reparsing our own binary output failed: %v", err)
		}
		if len(reaccs) != len(accs) {
			t.Fatalf("round-trip changed access count: %d != %d", len(reaccs), len(accs))
		}
		if !bytes.Equal(first, valid(reaccs)) {
			t.Fatal("binary round-trip not byte-identical")
		}
	})
}
