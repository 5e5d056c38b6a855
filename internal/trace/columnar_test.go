package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pccsim/internal/mem"
)

// columnarMix builds an access sequence with every feature the block codec
// encodes: forward/backward deltas of all widths, thread runs, thread-uniform
// stretches, write bursts and read-only stretches, plus enough volume to
// cross several block boundaries (including a final short block).
func columnarMix(n int) []Access {
	rng := rand.New(rand.NewSource(99))
	accs := make([]Access, n)
	addr := uint64(1 << 30)
	thread := 0
	for i := range accs {
		switch rng.Intn(10) {
		case 0:
			addr = rng.Uint64() // wild jump, huge delta
		case 1:
			addr -= uint64(rng.Intn(1 << 20)) // backward
		default:
			addr += uint64(rng.Intn(256)) // small forward (the common case)
		}
		if rng.Intn(500) == 0 {
			thread = rng.Intn(8)
		}
		accs[i] = Access{
			Addr:   mem.VirtAddr(addr),
			Thread: thread,
			Write:  rng.Intn(10) == 0,
		}
	}
	return accs
}

// csrAccesses builds a deterministic CSR-shaped access sequence over four
// arrays, the way a graph kernel walks them: per vertex one offsets read
// (sequential), then per edge one neighbour-id read (sequential) and one
// property read at a random vertex, then the vertex's own result written to
// a second property array (sequential). Every array sits in its own region,
// as the workloads' layouts place them.
func csrAccesses(n int) []Access {
	const (
		vertices = 1 << 16
		offsets  = mem.VirtAddr(0x3f80_0000_0000)
		neigh    = offsets + 64<<20
		prop     = neigh + 512<<20
		result   = prop + 64<<20
	)
	rng := rand.New(rand.NewSource(5))
	accs := make([]Access, 0, n+64)
	e := 0
	for v := 0; len(accs) < n; v = (v + 1) % vertices {
		accs = append(accs, Access{Addr: offsets + mem.VirtAddr(8*v)})
		for k := rng.Intn(24); k >= 0; k-- {
			u := rng.Intn(vertices)
			accs = append(accs,
				Access{Addr: neigh + mem.VirtAddr(16*e)},
				Access{Addr: prop + mem.VirtAddr(32*u)})
			e++
		}
		accs = append(accs, Access{Addr: result + mem.VirtAddr(32*v), Write: true})
	}
	return accs[:n]
}

// threadRuns builds a multi-thread access sequence: two sequential streams
// over separate regions, switching thread every run accesses and stamping
// each access with its stream's index as the thread id.
func threadRuns(n, run int) []Access {
	accs := make([]Access, n)
	var next [2]mem.VirtAddr
	next[1] = 1 << 21
	for i := range accs {
		t := i / run % 2
		accs[i] = Access{Addr: next[t], Thread: t}
		next[t] += 64
	}
	return accs
}

// TestColumnarRoundTrip proves a block recording replays the exact access
// sequence through every consumption style: Next, NextBatch at odd sizes,
// and the in-place NextBlock/DecodeBlock paths, over both the single-base
// (columnarMix) and the multi-base (csrAccesses) layouts.
func TestColumnarRoundTrip(t *testing.T) {
	for _, gen := range []func(int) []Access{columnarMix, csrAccesses} {
		for _, n := range []int{0, 1, BlockAccesses - 1, BlockAccesses, BlockAccesses + 1, 3*BlockAccesses + 17} {
			columnarRoundTrip(t, gen(n))
		}
	}
}

func columnarRoundTrip(t *testing.T, accs []Access) {
	t.Helper()
	n := len(accs)
	rec := RecordBlocks(Slice(accs), 0)
	if rec == nil {
		t.Fatalf("n=%d: unlimited RecordBlocks returned nil", n)
	}
	if rec.Accesses() != uint64(n) {
		t.Fatalf("n=%d: Accesses() = %d", n, rec.Accesses())
	}
	wantBlocks := (n + BlockAccesses - 1) / BlockAccesses
	if rec.Blocks() != wantBlocks {
		t.Fatalf("n=%d: Blocks() = %d, want %d", n, rec.Blocks(), wantBlocks)
	}
	if got := drainNext(rec.Replay(), n+1); !reflect.DeepEqual(got, accs) && n > 0 {
		t.Fatalf("n=%d: Next replay diverged", n)
	}
	if got := drainBatch(rec.Replay(), n+1); !reflect.DeepEqual(got, accs) && n > 0 {
		t.Fatalf("n=%d: batch replay diverged", n)
	}
	// In-place block consumption at a capped size.
	rs := rec.Replay()
	var got []Access
	for {
		seg := rs.NextBlock(700)
		if len(seg) == 0 {
			break
		}
		got = append(got, seg...)
	}
	if !reflect.DeepEqual(got, accs) && n > 0 {
		t.Fatalf("n=%d: NextBlock replay diverged", n)
	}
	// Whole-block decode into a caller buffer.
	rs = rec.Replay()
	buf := make([]Access, BlockAccesses)
	got = got[:0]
	for {
		k := rs.DecodeBlock(buf)
		if k == 0 {
			break
		}
		got = append(got, buf[:k]...)
	}
	if !reflect.DeepEqual(got, accs) && n > 0 {
		t.Fatalf("n=%d: DecodeBlock replay diverged", n)
	}
}

// TestColumnarMixedConsumption: interleaving Next, NextBatch, NextBlock and
// DecodeBlock over one stream must still produce the exact sequence — the
// cursors realign across styles (vmm mixes them when a restored run
// fast-forwards with NextBatch and then continues with NextBlock).
func TestColumnarMixedConsumption(t *testing.T) {
	accs := columnarMix(2*BlockAccesses + 57)
	rec := RecordBlocks(Slice(accs), 0)
	rs := rec.Replay()
	var got []Access
	buf := make([]Access, BlockAccesses)
	for i := 0; ; i++ {
		switch i % 4 {
		case 0:
			a, ok := rs.Next()
			if !ok {
				goto done
			}
			got = append(got, a)
		case 1:
			k := rs.NextBatch(buf[:33])
			if k == 0 {
				goto done
			}
			got = append(got, buf[:k]...)
		case 2:
			seg := rs.NextBlock(517)
			if len(seg) == 0 {
				goto done
			}
			got = append(got, seg...)
		case 3:
			k := rs.DecodeBlock(buf)
			if k == 0 {
				goto done
			}
			got = append(got, buf[:k]...)
		}
	}
done:
	if !reflect.DeepEqual(got, accs) {
		t.Fatalf("mixed consumption diverged (%d of %d accesses)", len(got), len(accs))
	}
}

// TestReplayPanicsOnCorruptBlock: a recorded block that no longer decodes
// is a broken invariant, so every way of consuming the replay panics naming
// the block instead of ending the stream short.
func TestReplayPanicsOnCorruptBlock(t *testing.T) {
	rec := RecordBlocks(Slice(columnarMix(2*BlockAccesses)), 0)
	b := rec.blocks[1]
	b.data[blockFlagsOff(t, b)] = 0xff
	for name, drain := range map[string]func(*BlockReplayStream){
		"Next": func(rs *BlockReplayStream) {
			for _, ok := rs.Next(); ok; _, ok = rs.Next() {
			}
		},
		"NextBatch": func(rs *BlockReplayStream) { drainBatch(rs, 3*BlockAccesses) },
		"NextBlock": func(rs *BlockReplayStream) {
			for len(rs.NextBlock(BlockAccesses)) > 0 {
			}
		},
		"DecodeBlock": func(rs *BlockReplayStream) {
			for rs.DecodeBlock(make([]Access, BlockAccesses)) > 0 {
			}
		},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrColumnarCorrupt) || !strings.Contains(err.Error(), "block 1") {
					t.Errorf("%s: replay of a corrupt block panicked with %v, want ErrColumnarCorrupt naming block 1", name, err)
				}
			}()
			drain(rec.Replay())
		}()
	}
}

// TestColumnarByteCap: a stream whose encoding exceeds the cap makes
// RecordBlocks return nil (the caller falls back to live generation); one
// that fits records fully.
func TestColumnarByteCap(t *testing.T) {
	if rec := RecordBlocks(UniformRandom(0, 1<<40, 100_000, rand.New(rand.NewSource(1))), 64); rec != nil {
		t.Fatalf("RecordBlocks over a 64-byte cap must return nil, got %d bytes", rec.Size())
	}
	rec := RecordBlocks(Sequential(0, 1<<20, 64, 1000), 1<<20)
	if rec == nil || rec.Accesses() != 1000 {
		t.Fatal("RecordBlocks under cap must succeed")
	}
}

// TestColumnarContainerRoundTrip: marshal → parseBlockRecording reproduces a
// recording that replays identically, and the parse output's Bytes are
// identical to the input (a serialization fixpoint).
func TestColumnarContainerRoundTrip(t *testing.T) {
	accs := columnarMix(BlockAccesses + 321)
	rec := RecordBlocks(Slice(accs), 0)
	data := rec.marshal()
	re, err := parseBlockRecording(data)
	if err != nil {
		t.Fatalf("parseBlockRecording of our own output: %v", err)
	}
	if re.Accesses() != rec.Accesses() || re.Blocks() != rec.Blocks() {
		t.Fatalf("parsed shape (%d, %d) != original (%d, %d)",
			re.Accesses(), re.Blocks(), rec.Accesses(), rec.Blocks())
	}
	if got := drainBatch(re.Replay(), len(accs)+1); !reflect.DeepEqual(got, accs) {
		t.Fatal("parsed recording replays a different sequence")
	}
	if !reflect.DeepEqual(re.marshal(), data) {
		t.Fatal("serialize → parse → serialize is not byte-identical")
	}

	// Empty recording round-trips too.
	empty := RecordBlocks(Slice(nil), 0)
	re2, err := parseBlockRecording(empty.marshal())
	if err != nil || re2.Accesses() != 0 {
		t.Fatalf("empty container: %v, %d accesses", err, re2.Accesses())
	}
}

// TestColumnarTypedErrors pins the decode-is-total contract on the obvious
// malformation classes; the fuzz target covers the rest.
func TestColumnarTypedErrors(t *testing.T) {
	valid := RecordBlocks(Slice(columnarMix(BlockAccesses+10)), 0).marshal()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrColumnarMagic},
		{"bad magic", []byte("NOTACOL1 whatever"), ErrColumnarMagic},
		{"magic only", []byte(columnarMagic), ErrColumnarTruncated},
		{"truncated mid-block", valid[:len(valid)-5], ErrColumnarTruncated},
		{"trailing garbage", append(append([]byte{}, valid...), 1, 2, 3), ErrColumnarCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseBlockRecording(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("parseBlockRecording = %v, want %v", err, tc.want)
			}
		})
	}

	// A multi-base block's malformations: both address layouts flagged at
	// once, and a cut inside its register header or columns.
	mb := RecordBlocks(Slice(csrAccesses(BlockAccesses)), 0).marshal()
	// The flags byte follows the magic, the uvarint total (2 bytes), the
	// block count (1) and the block's own count (2). The encoder's registers
	// start at zero, so the first block's four take one byte each.
	hdr := len(columnarMagic) + 2 + 1 + 2
	if mb[hdr]&flagMultiBase == 0 {
		t.Fatalf("flags byte %#x is not multi-base", mb[hdr])
	}
	both := append([]byte{}, mb...)
	both[hdr] |= flagUniform
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"uniform and multi-base": {both, ErrColumnarCorrupt},
		"cut in registers":       {mb[:hdr+3], ErrColumnarTruncated},
		"cut in id column":       {mb[:hdr+1+baseRegs+BlockAccesses/2+10], ErrColumnarTruncated},
		"cut in deltas":          {mb[:len(mb)-100], ErrColumnarTruncated},
	} {
		if _, err := parseBlockRecording(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: parseBlockRecording = %v, want %v", name, err, tc.want)
		}
	}

	// Corrupting the header count without touching blocks must be caught.
	bad := append([]byte{}, valid...)
	bad[len(columnarMagic)] ^= 1
	if _, err := parseBlockRecording(bad); err == nil {
		t.Fatal("count/content mismatch accepted")
	}
}

// TestMeasureBlocksMatchesStats: measuring a stream block by block reports
// exactly the Stats of its full recording, for single-base, uniform,
// multi-base and multi-thread blocks alike.
func TestMeasureBlocksMatchesStats(t *testing.T) {
	for name, accs := range map[string][]Access{
		"mix":        columnarMix(2*BlockAccesses + 100),
		"sequential": drainNext(Sequential(0, 1<<22, 64, 10_000), 10_000),
		"csr":        csrAccesses(3*BlockAccesses + 100),
		"empty":      nil,
	} {
		want := RecordBlocks(Slice(accs), 0).Stats()
		if got := MeasureBlocks(Slice(accs)); got != want {
			t.Errorf("%s: MeasureBlocks = %+v, recording's Stats = %+v", name, got, want)
		}
	}
}

// TestColumnarStats sanity-checks the shape report pccsim -char prints.
func TestColumnarStats(t *testing.T) {
	accs := columnarMix(2*BlockAccesses + 100)
	rec := RecordBlocks(Slice(accs), 0)
	st := rec.Stats()
	if st.Blocks != 3 || st.Accesses != uint64(len(accs)) || st.Bytes != rec.Size() {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.BytesPerAccess <= 0 || st.BytesPerAccess > 24 {
		t.Fatalf("bytes/access %f out of range", st.BytesPerAccess)
	}
	var deltas uint64
	for _, c := range st.DeltaBytes {
		deltas += c
	}
	// Every access but the first of each block contributes one delta.
	if want := uint64(len(accs) - st.Blocks); deltas != want {
		t.Fatalf("delta histogram holds %d entries, want %d", deltas, want)
	}
	if st.String() == "" {
		t.Fatal("empty stats rendering")
	}

	// A single-thread read-only stream encodes without bitmaps or runs.
	seq := RecordBlocks(Sequential(0, 1<<22, 64, 10_000), 0)
	sst := seq.Stats()
	if sst.WriteBlocks != 0 || sst.SingleThreadBlocks != sst.Blocks {
		t.Fatalf("sequential stream stats: %+v", sst)
	}
	// A +64 stride zigzags to 128: one byte under the uniform-width layout,
	// so the whole stream encodes near 1 B/access.
	if sst.BytesPerAccess > 2.5 {
		t.Fatalf("sequential stream should encode near 1 B/access, got %f", sst.BytesPerAccess)
	}
	// Uniform blocks have no control column; the histogram must come from
	// the width byte instead of misreading delta data as nibble codes.
	if want := uint64(10_000 - sst.Blocks); sst.DeltaBytes[0] != want {
		t.Fatalf("sequential stream 1-byte deltas = %d, want %d (%+v)", sst.DeltaBytes[0], want, sst.DeltaBytes)
	}

	// A CSR-shaped stream encodes multi-base blocks, whose deltas number one
	// per access and are counted both in the histogram and on their own.
	csr := RecordBlocks(Slice(csrAccesses(3*BlockAccesses+100)), 0)
	cst := csr.Stats()
	if cst.MultiBaseBlocks == 0 {
		t.Fatalf("CSR stream encoded no multi-base block: %+v", cst)
	}
	var multi uint64
	deltas = 0
	for i, b := range csr.blocks {
		if b.data[blockFlagsOff(t, b)]&flagMultiBase != 0 {
			multi += uint64(b.count)
		} else if i < len(csr.blocks)-1 {
			t.Errorf("CSR block %d is single-base", i)
		}
	}
	for _, c := range cst.DeltaBytes {
		deltas += c
	}
	if cst.MultiBaseDeltas != multi {
		t.Fatalf("multi-base deltas = %d, want %d", cst.MultiBaseDeltas, multi)
	}
	if want := cst.Accesses - uint64(cst.Blocks-cst.MultiBaseBlocks); deltas != want {
		t.Fatalf("delta histogram holds %d entries, want %d", deltas, want)
	}
	if !strings.Contains(cst.String(), fmt.Sprintf("multi-base-blocks=%d", cst.MultiBaseBlocks)) {
		t.Fatalf("stats rendering lacks the multi-base count: %s", cst)
	}
}

// blockFlagsOff returns the offset of b's flags byte.
func blockFlagsOff(t *testing.T, b blockRef) int {
	t.Helper()
	_, off, err := peekBlockCount(b.data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// TestColumnarNoBlockGrows pins the selection rule: a block takes the
// multi-base layout only when its address column beats the single-base one
// by the margin, so no block is larger than its single-base encoding, and a
// single-base block is exactly that encoding.
func TestColumnarNoBlockGrows(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(11)) }
	streams := map[string][]Access{
		"mix":        columnarMix(5*BlockAccesses + 99),
		"sequential": drainNext(Sequential(1<<30, 1<<24, 64, 5*BlockAccesses), 5*BlockAccesses),
		"uniform":    drainNext(UniformRandom(1<<30, 1<<32, 5*BlockAccesses, rng()), 5*BlockAccesses),
		"csr":        csrAccesses(5*BlockAccesses + 99),
	}
	scratch := make([]byte, maxBlockBytes)
	buf := make([]Access, BlockAccesses)
	for name, accs := range streams {
		rec := RecordBlocks(Slice(accs), 0)
		multi := 0
		for i, b := range rec.blocks {
			acc := buf[:b.count]
			if _, _, err := decodeBlock(b.data, 0, acc); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			off := blockFlagsOff(t, b) + 1
			single, _ := singleBase(scratch, 0, acc)
			var got int
			if b.data[off-1]&flagMultiBase != 0 {
				multi++
				end, err := decodeMultiBase(b.data, off, acc)
				if err != nil {
					t.Fatalf("%s block %d: %v", name, i, err)
				}
				if got = end - off; got*marginDiv > single*(marginDiv-1) {
					t.Errorf("%s block %d: multi-base column %d B does not beat single-base %d B by 1/%d",
						name, i, got, single, marginDiv)
				}
				continue
			}
			// A single-base block's column is singleBase's output byte for
			// byte.
			if !bytes.Equal(b.data[off:off+single], scratch[:single]) {
				t.Errorf("%s block %d: single-base column differs from singleBase's encoding", name, i)
			}
		}
		if wantMulti := name == "csr"; (multi > 0) != wantMulti {
			t.Errorf("%s: %d multi-base blocks of %d, want some: %v", name, multi, rec.Blocks(), wantMulti)
		}
	}
}

// TestColumnarChunks: a recording larger than one chunk keeps every block
// in a single chunk, holds exactly Size() bytes in blocks that leave no
// append capacity, and replays exactly; the byte cap still applies across
// chunks.
func TestColumnarChunks(t *testing.T) {
	n := 200 * BlockAccesses
	accs := drainNext(UniformRandom(1<<30, 1<<40, uint64(n), rand.New(rand.NewSource(4))), n)
	rec := RecordBlocks(Slice(accs), 0)
	if rec.Size() < 4*chunkBytes {
		t.Fatalf("recording of %d B is too small to span several chunks", rec.Size())
	}
	held := 0
	for i, b := range rec.blocks {
		if cap(b.data) != len(b.data) {
			t.Fatalf("block %d: cap %d > len %d", i, cap(b.data), len(b.data))
		}
		held += len(b.data)
	}
	if held != rec.Size() {
		t.Fatalf("blocks hold %d B, Size() = %d", held, rec.Size())
	}
	if got := drainBatch(rec.Replay(), n+1); !reflect.DeepEqual(got, accs) {
		t.Fatal("multi-chunk recording replays a different sequence")
	}
	if re, err := parseBlockRecording(rec.marshal()); err != nil || re.Size() != rec.Size() {
		t.Fatalf("container round trip: %v", err)
	}
	if capped := RecordBlocks(Slice(accs), int64(rec.Size()-1)); capped != nil {
		t.Fatal("a cap one byte below the encoded size must refuse the recording")
	}
	if exact := RecordBlocks(Slice(accs), int64(rec.Size())); exact == nil {
		t.Fatal("a cap equal to the encoded size must admit the recording")
	}
}
