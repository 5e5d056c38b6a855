package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pccsim/internal/mem"
)

// This file implements external trace import, so address streams captured
// elsewhere (e.g. converted Pin/DynamoRIO traces, as the paper's
// methodology uses) can be replayed through the simulator (OpenFile). The
// writers exist for the parsers' round-trip tests.
//
// Two formats are supported:
//
//	text:   one access per line: "<hex-or-dec address> [r|w] [thread]"
//	        ('#'-prefixed lines are comments)
//	binary: little-endian records of 8-byte address + 1-byte flags
//	        (bit0 = write, bits1-7 = thread id), preceded by the magic
//	        "PCCTRC1\n"
//
// The binary format is ~9B/access; a 100M-access trace is ~900MB, which
// streams fine since readers are fully incremental.

// binaryMagic identifies the binary trace format.
const binaryMagic = "PCCTRC1\n"

// writeText streams s to w in the text format, returning accesses written.
func writeText(w io.Writer, s Stream) (uint64, error) {
	bw := bufio.NewWriter(w)
	var n uint64
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		rw := 'r'
		if a.Write {
			rw = 'w'
		}
		if _, err := fmt.Fprintf(bw, "%#x %c %d\n", uint64(a.Addr), rw, a.Thread); err != nil {
			return n, fmt.Errorf("trace: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// writeBinary streams s to w in the binary format, returning accesses
// written.
func writeBinary(w io.Writer, s Stream) (uint64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	var rec [9]byte
	var n uint64
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(rec[:8], uint64(a.Addr))
		flags := byte(a.Thread&0x7f) << 1
		if a.Write {
			flags |= 1
		}
		rec[8] = flags
		if _, err := bw.Write(rec[:]); err != nil {
			return n, fmt.Errorf("trace: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// readText returns a stream over the text format. Malformed lines terminate
// the stream with the error surfaced through Err on the returned reader.
func readText(r io.Reader) *FileStream {
	return &FileStream{scanner: bufio.NewScanner(r)}
}

// readBinary returns a stream over the binary format, validating the magic
// on the first Next call.
func readBinary(r io.Reader) *FileStream {
	return &FileStream{binary: bufio.NewReaderSize(r, 1<<16)}
}

// OpenFile opens a trace file, sniffing the format from the magic.
// The caller must Close the returned stream.
func OpenFile(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head, _ := br.Peek(len(binaryMagic))
	fs := &FileStream{closer: f}
	if string(head) == binaryMagic {
		fs.binary = br
	} else {
		fs.scanner = bufio.NewScanner(br)
	}
	return fs, nil
}

// FileStream adapts a trace file to Stream. After the stream ends, Err
// reports whether it ended at EOF (nil) or on malformed input.
type FileStream struct {
	scanner *bufio.Scanner
	binary  *bufio.Reader
	rbuf    []byte // bulk-read staging buffer, reused across NextBatch calls
	started bool
	err     error
	closer  io.Closer
}

// Next implements Stream.
func (fs *FileStream) Next() (Access, bool) {
	if fs.err != nil {
		return Access{}, false
	}
	if fs.binary != nil {
		return fs.nextBinary()
	}
	return fs.nextText()
}

func (fs *FileStream) nextText() (Access, bool) {
	for fs.scanner.Scan() {
		line := strings.TrimSpace(fs.scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		addr, err := strconv.ParseUint(fields[0], 0, 64)
		if err != nil {
			fs.err = fmt.Errorf("trace: bad address %q: %w", fields[0], err)
			return Access{}, false
		}
		a := Access{Addr: mem.VirtAddr(addr)}
		if len(fields) > 1 && fields[1] == "w" {
			a.Write = true
		}
		if len(fields) > 2 {
			// Thread ids index core arrays downstream, so negative values
			// (which Atoi would accept) must be rejected as malformed.
			t, err := strconv.ParseUint(fields[2], 10, 31)
			if err != nil {
				fs.err = fmt.Errorf("trace: bad thread %q: %w", fields[2], err)
				return Access{}, false
			}
			a.Thread = int(t)
		}
		return a, true
	}
	fs.err = fs.scanner.Err()
	return Access{}, false
}

// readMagic consumes and validates the binary header on first use.
func (fs *FileStream) readMagic() bool {
	fs.started = true
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(fs.binary, head); err != nil {
		fs.err = fmt.Errorf("trace: reading magic: %w", err)
		return false
	}
	if string(head) != binaryMagic {
		fs.err = fmt.Errorf("trace: bad magic %q", head)
		return false
	}
	return true
}

func (fs *FileStream) nextBinary() (Access, bool) {
	if !fs.started && !fs.readMagic() {
		return Access{}, false
	}
	var rec [9]byte
	if _, err := io.ReadFull(fs.binary, rec[:]); err != nil {
		if err != io.EOF {
			fs.err = fmt.Errorf("trace: %w", err)
		}
		return Access{}, false
	}
	return Access{
		Addr:   mem.VirtAddr(binary.LittleEndian.Uint64(rec[:8])),
		Write:  rec[8]&1 != 0,
		Thread: int(rec[8] >> 1),
	}, true
}

// binaryBatchRecords bounds NextBatch's bulk read: 512 records is one 4.5 KiB
// fill, small enough to stage on a reused buffer, large enough that the
// 9-byte record decode loop dominates the read syscall amortization.
const binaryBatchRecords = 512

// NextBatch implements BatchStream: one call decodes up to len(buf) records.
// The binary path reads whole chunks of records into a staging buffer that is
// reused across calls, so steady-state batching performs zero allocations and
// one buffered read per 512 records instead of one per record.
func (fs *FileStream) NextBatch(buf []Access) int {
	if fs.err != nil {
		return 0
	}
	if fs.binary != nil {
		return fs.nextBatchBinary(buf)
	}
	k := 0
	for k < len(buf) {
		a, ok := fs.Next()
		if !ok {
			break
		}
		buf[k] = a
		k++
	}
	return k
}

func (fs *FileStream) nextBatchBinary(buf []Access) int {
	if !fs.started && !fs.readMagic() {
		return 0
	}
	if fs.rbuf == nil {
		fs.rbuf = make([]byte, 9*binaryBatchRecords)
	}
	k := 0
	for k < len(buf) {
		want := len(buf) - k
		if want > binaryBatchRecords {
			want = binaryBatchRecords
		}
		n, err := io.ReadFull(fs.binary, fs.rbuf[:9*want])
		for i := 0; i < n/9; i++ {
			rec := fs.rbuf[9*i : 9*i+9]
			buf[k] = Access{
				Addr:   mem.VirtAddr(binary.LittleEndian.Uint64(rec[:8])),
				Write:  rec[8]&1 != 0,
				Thread: int(rec[8] >> 1),
			}
			k++
		}
		if err != nil {
			// The chunk size is speculative, so a short fill ending exactly on
			// a record boundary is a clean EOF; a mid-record cut is malformed
			// input, matching Next's per-record semantics.
			if err != io.EOF && !(err == io.ErrUnexpectedEOF && n%9 == 0) {
				fs.err = fmt.Errorf("trace: %w", err)
			}
			break
		}
	}
	return k
}

// Err reports a malformed-input error, nil after a clean EOF.
func (fs *FileStream) Err() error { return fs.err }

// Close releases the underlying file (no-op for reader-backed streams). Like
// every other stream's Close it has no result: the file is only read, so a
// close error leaves nothing unsaved.
func (fs *FileStream) Close() {
	if fs.closer != nil {
		fs.closer.Close()
	}
}
