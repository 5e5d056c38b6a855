package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"pccsim/internal/mem"
)

// deltaMask[w] keeps the low w bytes of an 8-byte little-endian load.
var deltaMask = [9]uint64{
	0, 0xff, 0xffff, 0xff_ffff, 0xffff_ffff,
	0xff_ffff_ffff, 0xffff_ffff_ffff, 0xff_ffff_ffff_ffff, ^uint64(0),
}

// This file implements the columnar block trace format behind the in-memory
// record/replay cache: a finite access stream is drained once into a compact
// recording and replayed any number of times. Instead of interleaving
// flags/address/thread varints per access, a BlockRecording splits the
// stream into fixed-capacity blocks and stores each field as its own column:
//
//	uvarint count          accesses in the block (1..BlockAccesses)
//	flags byte             bit0 = write bitmap present, bit1 = multi-thread,
//	                       bit2 = uniform delta width, bit3 = multi-base
//	address column         one of the three layouts below
//	[write bitmap]         ceil(count/8) bytes, bit i = access i is a write
//	thread column          multi-thread: (uvarint runLen, uvarint
//	                       zigzag(thread)) pairs summing to count;
//	                       single-thread: one uvarint zigzag(thread)
//
// The single-base layouts store each address as a delta from the previous
// one:
//
//	uvarint baseAddr       absolute address of the block's first access
//	width byte             uniform only (bit2): the shared byte width (1..8)
//	                       of every delta; the control column is then absent
//	ctrl column            mixed only: ceil((count-1)/2) bytes; nibble i (low
//	                       nibble of byte i/2 for even i, high for odd)
//	                       encodes the byte width minus one (1..8) of delta i
//	delta column           count-1 zigzag deltas, each stored little-endian
//	                       truncated to its control (or uniform) width
//
// The multi-base layout (bit3) stores each address as a delta from one of
// four base registers, the register then taking the address:
//
//	4 x uvarint register   the registers' values before the block's first
//	                       access
//	ctrl column            ceil(count/2) bytes of width nibbles, as above
//	                       but one per access, the first included
//	id column              ceil(count/4) bytes; bits 2(i%4)..2(i%4)+1 of
//	                       byte i/4 name the register access i is relative to
//	delta column           count zigzag deltas at their control widths
//
// Splitting the width codes out of the byte stream (the stream-vbyte trick)
// is what makes decode fast: a varint reader burns a data-dependent branch
// per payload byte, while this decoder reads the width from the control
// nibble and materializes the delta with one unaligned 8-byte load and a
// mask — no branch whose direction depends on the delta's size. Blocks whose
// deltas all share one width (sequential and strided streams — common, and
// exactly the streams that replay hottest) skip the control column entirely
// and decode with a constant-stride loop. The decoder fills a whole block of
// []Access at a time: writes apply as a bitmap pass only when the block has
// any, and threads fill by run. Blocks are independently decodable (each
// carries its absolute base address or its registers), so a consumer can
// decode block N+1 while the simulator consumes block N.
//
// Multi-base blocks exist for graph kernels, which alternate between four or
// five arrays (offsets, neighbours, properties): a delta from the previous
// access then spans the distance between two arrays, while a delta from the
// register that last touched the same array is a stride or a short hop. The
// encoder keeps four registers across blocks. Each access takes the nearest
// register; when none lies within nearBytes, it takes the least recently
// used one, so a newly visited array claims a register instead of pulling
// the nearest one away from its own array. A block takes the multi-base
// layout only when its address column is at least 1/marginDiv smaller than
// the single-base column, so no block grows, and streams that do not
// alternate (sequential scans, uniform random probes) keep the single-base
// bytes and decode loop. The encoder first tries each block's first
// trialAccesses accesses and skips the rest of the search when that sample
// does not win by half the margin.
//
// A recording's bytes live in chunks of at most chunkBytes. RecordBlocks
// encodes each block into a reused staging buffer of that size and, when
// the next block might not fit, copies the staged blocks into one
// exactly-sized chunk, so recording allocates its encoded size once instead
// of regrowing one slice, and a recording holds exactly Size() bytes. A
// block never straddles two chunks: each block index entry keeps the
// block's own byte slice.

// zigzag maps signed deltas onto small unsigned integers.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// deltaWidth is the byte width (1..8) a zigzag delta is stored in.
func deltaWidth(u uint64) int { return (bits.Len64(u|1) + 7) / 8 }

// BlockAccesses is the fixed block capacity. Every block of a recording
// holds exactly this many accesses except the final one, which may be
// shorter. It deliberately matches the vmm scheduler's job quantum so a
// round-robin turn consumes exactly one block in the steady state.
const BlockAccesses = 4096

// columnarMagic identifies the serialized columnar container (marshal /
// parseBlockRecording). Version 2 added the multi-base layout.
const columnarMagic = "PCCCOL2\n"

// Block flags.
const (
	flagWrites    = 1 << 0 // write bitmap present
	flagThreads   = 1 << 1 // run-length thread column
	flagUniform   = 1 << 2 // single-base, one delta width for the block
	flagMultiBase = 1 << 3 // multi-base address column
)

// Multi-base encoder parameters (see the file comment).
const (
	// baseRegs is the number of base registers; the id column's 2-bit
	// entries name one of them.
	baseRegs = 4
	// nearBytes is the distance within which an access takes its nearest
	// register rather than the least recently used one.
	nearBytes = 1 << 15
	// marginDiv sets the selection margin: a block takes the multi-base
	// layout only when its address column is at most (marginDiv-1)/marginDiv
	// of the single-base one.
	marginDiv = 8
	// trialAccesses is the block prefix the encoder tries the multi-base
	// layout on. The search goes on over the rest of the block only when
	// the prefix beats the single-base layout by half the margin, which
	// leaves room for a prefix that misjudges a block near the margin.
	trialAccesses = BlockAccesses / 8
)

// chunkBytes is the staging buffer's size and so the largest chunk.
const chunkBytes = 256 << 10

// maxBlockBytes bounds one encoded block, with 8 bytes of slack for the
// encoder's unaligned 8-byte delta stores: count and flags, four registers,
// the control and id columns, full-width deltas, the write bitmap, and one
// thread run per access.
const maxBlockBytes = binary.MaxVarintLen64 + 1 + baseRegs*binary.MaxVarintLen64 +
	(BlockAccesses+1)/2 + (BlockAccesses+3)/4 + 8*BlockAccesses + 8 +
	BlockAccesses/8 + BlockAccesses*(binary.MaxVarintLen16+binary.MaxVarintLen64)

// Typed decode errors, following the internal/snapshot convention: decoding
// untrusted bytes is total — it returns one of these, it never panics.
var (
	// ErrColumnarMagic reports input that is not a columnar container.
	ErrColumnarMagic = errors.New("trace: columnar: bad magic")
	// ErrColumnarTruncated reports input that ends mid-structure.
	ErrColumnarTruncated = errors.New("trace: columnar: truncated")
	// ErrColumnarCorrupt reports structurally invalid input (bad counts,
	// overlong varints, thread runs that do not sum to the block count).
	ErrColumnarCorrupt = errors.New("trace: columnar: corrupt")
)

// BlockSource is a BatchStream whose decoded blocks can be consumed in
// place, skipping the consumer-side copy. vmm.Machine.Run feeds its
// simulation loop directly from these slices when a job's stream implements
// it.
type BlockSource interface {
	BatchStream
	// NextBlock returns up to max accesses decoded in place. The returned
	// slice is owned by the stream and valid only until the next
	// NextBlock/DecodeBlock/Next/NextBatch call; nil/empty means exhausted.
	NextBlock(max int) []Access
	// DecodeBlock decodes the next whole block into buf and returns the
	// access count (0 when exhausted). buf should have room for
	// BlockAccesses; shorter buffers are served by copy. Unlike NextBlock
	// the result does not alias stream-internal storage: buf stays the
	// caller's, to keep or hand on while the stream decodes the next block.
	// The simulator itself never calls it; the benchmark harness's stream
	// wrapper does.
	DecodeBlock(buf []Access) int
}

// blockRef is one encoded block of a BlockRecording: its bytes (a slice of
// one chunk, or of the parsed input) and its access count.
type blockRef struct {
	data  []byte
	count uint32
}

// BlockRecording is an immutable, compactly encoded, replayable copy of a
// finite access stream in the columnar block format. It is safe for
// concurrent Replay calls.
type BlockRecording struct {
	blocks []blockRef
	size   int // encoded bytes, the sum of the blocks' lengths
	count  uint64
}

// RecordBlocks drains s into a BlockRecording. It returns nil as soon as the
// encoding exceeds maxBytes (maxBytes <= 0 means unlimited) — the stream is
// then partially consumed and the caller falls back to live generation.
// RecordBlocks does not close s; the caller owns the stream's lifecycle.
func RecordBlocks(s Stream, maxBytes int64) *BlockRecording {
	bs := Batched(s)
	r := &BlockRecording{}
	block := make([]Access, BlockAccesses)
	enc := blockEncoder{stage: make([]byte, chunkBytes)}
	for {
		n := fillBlock(bs, block)
		if n == 0 {
			enc.flush(r)
			return r
		}
		k := enc.encode(block[:n], r)
		r.size += k
		r.count += uint64(n)
		if maxBytes > 0 && int64(r.size) > maxBytes {
			return nil
		}
	}
}

// MeasureBlocks drains s through the block encoder and returns the Stats
// of the recording RecordBlocks(s, 0) would build, holding one encoded
// block at a time instead of the recording. It does not close s.
func MeasureBlocks(s Stream) BlockStats {
	bs := Batched(s)
	block := make([]Access, BlockAccesses)
	enc := blockEncoder{stage: make([]byte, maxBlockBytes)}
	var cur BlockRecording // the block just encoded
	var st BlockStats
	for n := fillBlock(bs, block); n > 0; n = fillBlock(bs, block) {
		enc.used, cur.blocks = 0, cur.blocks[:0]
		enc.encode(block[:n], &cur)
		st.add(cur.blocks[0])
	}
	return st
}

// fillBlock reads up to a whole block of bs into block and returns the
// count, so every block except the final one holds exactly BlockAccesses
// even over chunky producers.
func fillBlock(bs BatchStream, block []Access) int {
	n := 0
	for n < BlockAccesses {
		k := bs.NextBatch(block[n:])
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// blockEncoder is RecordBlocks' state across blocks: the staging buffer
// blocks are encoded into, and the multi-base registers with their
// last-use stamps.
type blockEncoder struct {
	stage   []byte // staged blocks, flushed into a chunk when full
	used    int    // staged bytes
	pending int    // index of the first block still in stage
	regs    [baseRegs]uint64
	stamps  [baseRegs]uint64
	clock   uint64
}

// encode encodes one block of acc into the staging buffer, appends its
// index entry to r and returns its encoded length. The entry's bytes alias
// the staging buffer until the next flush.
func (e *blockEncoder) encode(acc []Access, r *BlockRecording) int {
	if len(e.stage)-e.used < maxBlockBytes {
		e.flush(r)
	}
	dst := e.stage[e.used:]
	n := len(acc)
	flags := byte(0)
	for i := range acc {
		if acc[i].Write {
			flags |= flagWrites
		}
		if acc[i].Thread != acc[0].Thread {
			flags |= flagThreads
		}
	}
	off := binary.PutUvarint(dst, uint64(n))
	flagsOff := off
	off++
	if end, ok := e.multiBase(dst, off, acc); ok {
		flags |= flagMultiBase
		off = end
	} else {
		var uniform bool
		off, uniform = singleBase(dst, off, acc)
		if uniform {
			flags |= flagUniform
		}
	}
	dst[flagsOff] = flags
	if flags&flagWrites != 0 {
		bm := dst[off : off+(n+7)/8]
		clear(bm)
		for i := range acc {
			if acc[i].Write {
				bm[i>>3] |= 1 << (i & 7)
			}
		}
		off += len(bm)
	}
	if flags&flagThreads != 0 {
		i := 0
		for i < n {
			t := acc[i].Thread
			j := i + 1
			for j < n && acc[j].Thread == t {
				j++
			}
			off += binary.PutUvarint(dst[off:], uint64(j-i))
			off += binary.PutUvarint(dst[off:], zigzag(int64(t)))
			i = j
		}
	} else {
		off += binary.PutUvarint(dst[off:], zigzag(int64(acc[0].Thread)))
	}
	r.blocks = append(r.blocks, blockRef{data: dst[:off:off], count: uint32(n)})
	e.used += off
	return off
}

// flush copies the staged blocks into one exactly-sized chunk and repoints
// their index entries at it.
func (e *blockEncoder) flush(r *BlockRecording) {
	if e.used == 0 {
		return
	}
	chunk := make([]byte, e.used)
	copy(chunk, e.stage[:e.used])
	pos := 0
	for i := e.pending; i < len(r.blocks); i++ {
		end := pos + len(r.blocks[i].data)
		r.blocks[i].data = chunk[pos:end:end]
		pos = end
	}
	e.used, e.pending = 0, len(r.blocks)
}

// singleBase writes acc's single-base address column at dst[off:] and
// returns its end and whether it took the uniform-width layout.
func singleBase(dst []byte, off int, acc []Access) (int, bool) {
	prev := uint64(acc[0].Addr)
	off += binary.PutUvarint(dst[off:], prev)
	nd := len(acc) - 1
	// Uniform-width blocks (sequential/strided streams) drop the control
	// column and decode with a constant-stride loop.
	uniform := nd > 0
	w0 := 0
	for i := 1; i < len(acc); i++ {
		a := uint64(acc[i].Addr)
		w := deltaWidth(zigzag(int64(a - prev)))
		prev = a
		if w0 == 0 {
			w0 = w
		} else if w != w0 {
			uniform = false
			break
		}
	}
	prev = uint64(acc[0].Addr)
	if uniform {
		dst[off] = byte(w0)
		off++
		for i := 1; i < len(acc); i++ {
			a := uint64(acc[i].Addr)
			binary.LittleEndian.PutUint64(dst[off:], zigzag(int64(a-prev)))
			prev = a
			off += w0
		}
		return off, true
	}
	// Control nibbles are fixed-length, so reserve them up front and fill
	// while storing the variable-length deltas behind them.
	ctrl := dst[off : off+(nd+1)/2]
	clear(ctrl)
	off += len(ctrl)
	for i := 0; i < nd; i++ {
		a := uint64(acc[i+1].Addr)
		u := zigzag(int64(a - prev))
		prev = a
		w := deltaWidth(u)
		ctrl[i>>1] |= byte(w-1) << (i & 1 * 4)
		binary.LittleEndian.PutUint64(dst[off:], u)
		off += w
	}
	return off, false
}

// multiBase writes acc's multi-base address column at dst[off:] and
// returns its end, or false when the layout does not beat the single-base
// one by the margin. It checks after the first trialAccesses accesses (by
// half the margin) and at the end (by the whole margin), against the
// single-base column's size, which it tallies alongside. The registers
// advance over every access the search visits, whichever layout the block
// then takes.
func (e *blockEncoder) multiBase(dst []byte, off int, acc []Access) (int, bool) {
	n := len(acc)
	regs, stamps, clock := e.regs, e.stamps, e.clock
	start := off
	for _, r := range regs {
		off += binary.PutUvarint(dst[off:], r)
	}
	regsLen := off - start
	ctrl := dst[off : off+(n+1)/2]
	clear(ctrl)
	off += len(ctrl)
	ids := dst[off : off+(n+3)/4]
	clear(ids)
	off += len(ids)

	// The single-base column: the base address, then one width byte (uniform)
	// or the control nibbles (mixed), then the deltas.
	prev := uint64(acc[0].Addr)
	singleHead := uvarintLen(prev)
	singleSum, multiSum, w0, uniform := 0, 0, 0, true
	ok := true
	for i := range acc {
		a := uint64(acc[i].Addr)
		if i > 0 {
			w := deltaWidth(zigzag(int64(a - prev)))
			singleSum += w
			if w0 == 0 {
				w0 = w
			} else if w != w0 {
				uniform = false
			}
		}
		prev = a

		// The nearest register by zigzag distance (a tie keeps the lower
		// id), or the least recently used one when none is near.
		id := 0
		best := zigzag(int64(a - regs[0]))
		if z := zigzag(int64(a - regs[1])); z < best {
			best, id = z, 1
		}
		if z := zigzag(int64(a - regs[2])); z < best {
			best, id = z, 2
		}
		if z := zigzag(int64(a - regs[3])); z < best {
			best, id = z, 3
		}
		if best > 2*nearBytes {
			id = 0
			for k := 1; k < baseRegs; k++ {
				if stamps[k] < stamps[id] {
					id = k
				}
			}
			best = zigzag(int64(a - regs[id]))
		}
		regs[id] = a
		clock++
		stamps[id] = clock
		w := deltaWidth(best)
		ctrl[i>>1] |= byte(w-1) << (i & 1 * 4)
		ids[i>>2] |= byte(id) << (i & 3 * 2)
		binary.LittleEndian.PutUint64(dst[off:], best)
		off += w
		multiSum += w

		if i+1 == trialAccesses && i+1 < n {
			// i+1 accesses: i single-base deltas.
			single := singleHead + (i+1)/2 + singleSum
			if uniform {
				single = singleHead + 1 + singleSum
			}
			if !beats(regsLen+(i+2)/2+(i+4)/4+multiSum, single, 2*marginDiv) {
				ok = false
				break
			}
		}
	}
	e.regs, e.stamps, e.clock = regs, stamps, clock
	if !ok {
		return 0, false
	}
	single := singleHead + n/2 + singleSum
	if uniform && n > 1 {
		single = singleHead + 1 + singleSum
	}
	if !beats(off-start, single, marginDiv) {
		return 0, false
	}
	return off, true
}

// beats reports whether a multi-base column of multi bytes is at most
// (div-1)/div of a single-base one of single bytes.
func beats(multi, single, div int) bool {
	return multi*div <= single*(div-1)
}

// uvarintLen is the encoded length of u as a uvarint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// Accesses returns the number of recorded accesses.
func (r *BlockRecording) Accesses() uint64 { return r.count }

// Size returns the encoded size in bytes, which is also what a recording
// built by RecordBlocks holds (excluding the per-block index, 32 bytes per
// ~4K accesses).
func (r *BlockRecording) Size() int { return r.size }

// Blocks returns the number of encoded blocks.
func (r *BlockRecording) Blocks() int { return len(r.blocks) }

// marshal serializes the recording into the standalone columnar container:
// magic, uvarint total access count, uvarint block count, then the encoded
// blocks. parseBlockRecording inverts it.
func (r *BlockRecording) marshal() []byte {
	out := make([]byte, 0, len(columnarMagic)+2*binary.MaxVarintLen64+r.size)
	out = append(out, columnarMagic...)
	out = binary.AppendUvarint(out, r.count)
	out = binary.AppendUvarint(out, uint64(len(r.blocks)))
	for _, b := range r.blocks {
		out = append(out, b.data...)
	}
	return out
}

// parseBlockRecording decodes a serialized columnar container. It validates
// every block structurally (by decoding it into a scratch buffer), so a
// successful parse guarantees replay can never fail; malformed input yields
// a typed error — ErrColumnarMagic, ErrColumnarTruncated or
// ErrColumnarCorrupt — never a panic.
func parseBlockRecording(data []byte) (*BlockRecording, error) {
	if len(data) < len(columnarMagic) || string(data[:len(columnarMagic)]) != columnarMagic {
		return nil, ErrColumnarMagic
	}
	rest := data[len(columnarMagic):]
	total, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrColumnarTruncated
	}
	rest = rest[n:]
	nblocks, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, ErrColumnarTruncated
	}
	rest = rest[n:]
	// A block encodes at least 4 bytes (count, flags, base, thread); bound
	// nblocks by the remaining input before allocating the index.
	if nblocks > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: %d blocks in %d bytes", ErrColumnarCorrupt, nblocks, len(rest))
	}
	r := &BlockRecording{blocks: make([]blockRef, 0, nblocks), size: len(rest)}
	scratch := make([]Access, BlockAccesses)
	off := 0
	var sum uint64
	for b := uint64(0); b < nblocks; b++ {
		count, end, err := validateBlock(rest, off, scratch)
		if err != nil {
			return nil, fmt.Errorf("block %d at %d: %w", b, off, err)
		}
		r.blocks = append(r.blocks, blockRef{data: rest[off:end:end], count: uint32(count)})
		sum += uint64(count)
		off = end
	}
	if off != len(rest) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrColumnarCorrupt, len(rest)-off)
	}
	if sum != total {
		return nil, fmt.Errorf("%w: header count %d, blocks hold %d", ErrColumnarCorrupt, total, sum)
	}
	r.count = sum
	return r, nil
}

// validateBlock decodes the block starting at off for its side effects only,
// returning its access count and end offset.
func validateBlock(data []byte, off int, scratch []Access) (count, end int, err error) {
	c, end, err := peekBlockCount(data, off)
	if err != nil {
		return 0, 0, err
	}
	n, end, err := decodeBlock(data, off, scratch[:c])
	if err != nil {
		return 0, 0, err
	}
	return n, end, nil
}

// peekBlockCount reads the count header of the block at off.
func peekBlockCount(data []byte, off int) (count, afterCount int, err error) {
	u, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, ErrColumnarTruncated
	}
	if u == 0 || u > BlockAccesses {
		return 0, 0, fmt.Errorf("%w: block count %d", ErrColumnarCorrupt, u)
	}
	return int(u), off + n, nil
}

// uvarintAt is the checked varint reader the block decoder uses; unlike
// binary.Uvarint it reports truncation and overlength explicitly so decode
// stays total over arbitrary bytes.
func uvarintAt(data []byte, off int) (u uint64, next int, err error) {
	var shift uint
	for {
		if off >= len(data) {
			return 0, 0, ErrColumnarTruncated
		}
		b := data[off]
		off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, 0, fmt.Errorf("%w: varint overflow", ErrColumnarCorrupt)
			}
			return u | uint64(b)<<shift, off, nil
		}
		u |= uint64(b&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, 0, fmt.Errorf("%w: varint overflow", ErrColumnarCorrupt)
		}
	}
}

// decodeBlock decodes the block starting at off into buf, which must hold
// exactly the block's count (callers size it via peekBlockCount or the block
// index). It returns the count and the block's end offset. Decode is total:
// malformed input yields a typed error, never a panic or out-of-bounds
// access.
func decodeBlock(data []byte, off int, buf []Access) (n, end int, err error) {
	count, off, err := peekBlockCount(data, off)
	if err != nil {
		return 0, 0, err
	}
	if count != len(buf) {
		return 0, 0, fmt.Errorf("%w: block count %d, buffer %d", ErrColumnarCorrupt, count, len(buf))
	}
	if off >= len(data) {
		return 0, 0, ErrColumnarTruncated
	}
	flags := data[off]
	off++
	if flags&^byte(flagWrites|flagThreads|flagUniform|flagMultiBase) != 0 ||
		flags&(flagUniform|flagMultiBase) == flagUniform|flagMultiBase {
		return 0, 0, fmt.Errorf("%w: flags %#x", ErrColumnarCorrupt, flags)
	}
	if flags&flagMultiBase != 0 {
		off, err = decodeMultiBase(data, off, buf)
		if err != nil {
			return 0, 0, err
		}
		return decodeBlockTail(data, off, buf, flags, count)
	}

	// Address column: absolute base, control nibbles, then packed deltas.
	// The loop body writes the full Access struct so stale Thread/Write
	// values from a previous decode can never leak through.
	prev, off, err := uvarintAt(data, off)
	if err != nil {
		return 0, 0, err
	}
	buf[0] = Access{Addr: mem.VirtAddr(prev)}
	nd := count - 1
	if flags&flagUniform != 0 {
		off, err = decodeUniformDeltas(data, off, buf, prev)
		if err != nil {
			return 0, 0, err
		}
		return decodeBlockTail(data, off, buf, flags, count)
	}
	ctrlLen := (nd + 1) / 2
	if off+ctrlLen > len(data) {
		return 0, 0, ErrColumnarTruncated
	}
	ctrl := data[off : off+ctrlLen]
	off += ctrlLen
	// The width comes from the control nibble, so the payload read is one
	// unaligned 8-byte load and a mask — no branch depends on the delta's
	// size. The main loop decodes a control byte (two deltas) per
	// iteration; widths are clamped to 1..8 and validated branchlessly by
	// accumulating the nibbles' high bits into bad. Only the last few
	// deltas (within 16 bytes of the input's end) take the checked
	// byte-at-a-time tail path.
	var bad byte
	i := 0
	for ; i+2 <= nd && off <= len(data)-16; i += 2 {
		cb := ctrl[i>>1]
		bad |= cb & 0x88
		w := int(cb&7) + 1
		prev += uint64(unzigzag(binary.LittleEndian.Uint64(data[off:]) & deltaMask[w]))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
		off += w
		w = int(cb>>4&7) + 1
		prev += uint64(unzigzag(binary.LittleEndian.Uint64(data[off:]) & deltaMask[w]))
		buf[i+2] = Access{Addr: mem.VirtAddr(prev)}
		off += w
	}
	for ; i < nd; i++ {
		nib := ctrl[i>>1] >> ((i & 1) * 4) & 0xf
		bad |= nib & 8
		w := int(nib&7) + 1
		if off+w > len(data) {
			return 0, 0, ErrColumnarTruncated
		}
		var u uint64
		for b := 0; b < w; b++ {
			u |= uint64(data[off+b]) << (8 * b)
		}
		off += w
		prev += uint64(unzigzag(u))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
	}
	if bad != 0 {
		return 0, 0, fmt.Errorf("%w: delta width nibble > 7", ErrColumnarCorrupt)
	}
	return decodeBlockTail(data, off, buf, flags, count)
}

// decodeMultiBase decodes a multi-base address column (flag bit 3): the four
// registers, the control and id columns, then one zigzag delta per access,
// added to the register its id names. As in the mixed layout, each delta is
// one unaligned 8-byte load and a mask; the main loop decodes one id byte
// (four accesses) per iteration, and only the accesses within 32 bytes of
// the input's end take the checked tail path.
func decodeMultiBase(data []byte, off int, buf []Access) (int, error) {
	var regs [baseRegs]uint64
	for k := range regs {
		u, next, err := uvarintAt(data, off)
		if err != nil {
			return 0, err
		}
		regs[k], off = u, next
	}
	n := len(buf)
	ctrlLen, idLen := (n+1)/2, (n+3)/4
	if off+ctrlLen+idLen > len(data) {
		return 0, ErrColumnarTruncated
	}
	ctrl := data[off : off+ctrlLen]
	ids := data[off+ctrlLen : off+ctrlLen+idLen]
	off += ctrlLen + idLen
	var bad byte
	i := 0
	for ; i+4 <= n && off <= len(data)-32; i += 4 {
		id := ids[i>>2]
		c0, c1 := ctrl[i>>1], ctrl[i>>1+1]
		bad |= (c0 | c1) & 0x88
		// The four widths give the four deltas' offsets up front, so their
		// loads do not wait on each other.
		w0, w1, w2, w3 := int(c0&7)+1, int(c0>>4&7)+1, int(c1&7)+1, int(c1>>4&7)+1
		o1 := w0
		o2 := o1 + w1
		o3 := o2 + w2
		d := data[off : off+32]
		u0 := binary.LittleEndian.Uint64(d) & deltaMask[w0]
		u1 := binary.LittleEndian.Uint64(d[o1:]) & deltaMask[w1]
		u2 := binary.LittleEndian.Uint64(d[o2:]) & deltaMask[w2]
		u3 := binary.LittleEndian.Uint64(d[o3:]) & deltaMask[w3]
		off += o3 + w3
		b := buf[i : i+4 : i+4]
		r := id & 3
		regs[r] += uint64(unzigzag(u0))
		b[0] = Access{Addr: mem.VirtAddr(regs[r])}
		r = id >> 2 & 3
		regs[r] += uint64(unzigzag(u1))
		b[1] = Access{Addr: mem.VirtAddr(regs[r])}
		r = id >> 4 & 3
		regs[r] += uint64(unzigzag(u2))
		b[2] = Access{Addr: mem.VirtAddr(regs[r])}
		r = id >> 6
		regs[r] += uint64(unzigzag(u3))
		b[3] = Access{Addr: mem.VirtAddr(regs[r])}
	}
	for ; i < n; i++ {
		nib := ctrl[i>>1] >> (i & 1 * 4) & 0xf
		bad |= nib & 8
		w := int(nib&7) + 1
		if off+w > len(data) {
			return 0, ErrColumnarTruncated
		}
		var u uint64
		for b := 0; b < w; b++ {
			u |= uint64(data[off+b]) << (8 * b)
		}
		off += w
		r := ids[i>>2] >> (i & 3 * 2) & 3
		regs[r] += uint64(unzigzag(u))
		buf[i] = Access{Addr: mem.VirtAddr(regs[r])}
	}
	if bad != 0 {
		return 0, fmt.Errorf("%w: delta width nibble > 7", ErrColumnarCorrupt)
	}
	return off, nil
}

// decodeUniformDeltas decodes a uniform-width delta column (flag bit 2): a
// width byte then count-1 fixed-width little-endian zigzag deltas. The
// constant stride lets the common width-1 case run as a plain byte loop.
func decodeUniformDeltas(data []byte, off int, buf []Access, prev uint64) (int, error) {
	nd := len(buf) - 1
	if off >= len(data) {
		return 0, ErrColumnarTruncated
	}
	w := int(data[off])
	off++
	if w < 1 || w > 8 {
		return 0, fmt.Errorf("%w: uniform delta width %d", ErrColumnarCorrupt, w)
	}
	if off+nd*w > len(data) {
		return 0, ErrColumnarTruncated
	}
	col := data[off : off+nd*w]
	off += nd * w
	if w == 1 {
		for i, b := range col {
			prev += uint64(unzigzag(uint64(b)))
			buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
		}
		return off, nil
	}
	mask := deltaMask[w]
	i := 0
	for ; i < nd && (i+1)*w+8 <= len(col)+w; i++ {
		// One unaligned 8-byte load per delta while at least 8 bytes of
		// input remain past the delta's start.
		if i*w+8 > len(col) {
			break
		}
		prev += uint64(unzigzag(binary.LittleEndian.Uint64(col[i*w:]) & mask))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
	}
	for ; i < nd; i++ {
		var u uint64
		for b := 0; b < w; b++ {
			u |= uint64(col[i*w+b]) << (8 * b)
		}
		prev += uint64(unzigzag(u))
		buf[i+1] = Access{Addr: mem.VirtAddr(prev)}
	}
	return off, nil
}

// decodeBlockTail applies the write bitmap and thread column that follow a
// block's address column.
func decodeBlockTail(data []byte, off int, buf []Access, flags byte, count int) (n, end int, err error) {
	// Write bitmap, only present when the block has any write.
	if flags&flagWrites != 0 {
		bmLen := (count + 7) / 8
		if off+bmLen > len(data) {
			return 0, 0, ErrColumnarTruncated
		}
		bm := data[off : off+bmLen]
		off += bmLen
		// buf was freshly written with zero Write fields by the address
		// pass, so only set bits need touching; writes are sparse in real
		// streams, making this much cheaper than a bit test per access.
		// Padding bits past count are ignored, as the per-bit reader did.
		for bi := 0; bi < count/8; bi++ {
			base := bi * 8
			for b := bm[bi]; b != 0; b &= b - 1 {
				buf[base+bits.TrailingZeros8(b)].Write = true
			}
		}
		if count&7 != 0 {
			base := count &^ 7
			for b := bm[count/8] & byte(1<<(count&7)-1); b != 0; b &= b - 1 {
				buf[base+bits.TrailingZeros8(b)].Write = true
			}
		}
	}

	// Thread column: one value for the whole block, or run-length pairs.
	if flags&flagThreads == 0 {
		u, o, err := uvarintAt(data, off)
		if err != nil {
			return 0, 0, err
		}
		off = o
		if t := int(unzigzag(u)); t != 0 {
			for i := 0; i < count; i++ {
				buf[i].Thread = t
			}
		}
		return count, off, nil
	}
	filled := 0
	for filled < count {
		rl, o, err := uvarintAt(data, off)
		if err != nil {
			return 0, 0, err
		}
		tv, o, err := uvarintAt(data, o)
		if err != nil {
			return 0, 0, err
		}
		off = o
		if rl == 0 || rl > uint64(count-filled) {
			return 0, 0, fmt.Errorf("%w: thread run %d with %d slots left", ErrColumnarCorrupt, rl, count-filled)
		}
		// Thread 0 is already in place from the address pass's zeroing.
		if t := int(unzigzag(tv)); t != 0 {
			for i := filled; i < filled+int(rl); i++ {
				buf[i].Thread = t
			}
		}
		filled += int(rl)
	}
	return count, off, nil
}

// Replay returns a fresh stream over the recording. Replays are independent
// and byte-identical to the recorded stream; any number may run concurrently
// over the same BlockRecording.
func (r *BlockRecording) Replay() *BlockReplayStream { return &BlockReplayStream{r: r} }

// BlockReplayStream decodes a BlockRecording one whole block at a time. It
// implements Stream, BatchStream and BlockSource.
type BlockReplayStream struct {
	r    *BlockRecording
	next int      // next block index to decode
	buf  []Access // lazily allocated internal decode buffer
	dec  []Access // current decoded window into buf
	pos  int      // consumption cursor within dec
}

// decode decodes the next block into buf, which has room for it. Every
// recording comes from RecordBlocks or from a parse that decodes each block
// first, so a block that fails to decode is a broken invariant: decode
// panics naming it rather than end the stream short.
func (rs *BlockReplayStream) decode(buf []Access) int {
	ref := rs.r.blocks[rs.next]
	n, _, err := decodeBlock(ref.data, 0, buf[:ref.count])
	if err != nil {
		panic(fmt.Errorf("trace: replaying block %d: %w", rs.next, err))
	}
	rs.next++
	return n
}

// fill decodes the next block into the internal buffer; false at stream end.
func (rs *BlockReplayStream) fill() bool {
	if rs.next >= len(rs.r.blocks) {
		return false
	}
	if rs.buf == nil {
		rs.buf = make([]Access, BlockAccesses)
	}
	rs.dec = rs.buf[:rs.decode(rs.buf)]
	rs.pos = 0
	return true
}

// Next implements Stream.
func (rs *BlockReplayStream) Next() (Access, bool) {
	if rs.pos >= len(rs.dec) && !rs.fill() {
		return Access{}, false
	}
	a := rs.dec[rs.pos]
	rs.pos++
	return a, true
}

// NextBatch implements BatchStream. Block-aligned requests with room for the
// whole block decode straight into buf; anything else is served from the
// internal block buffer.
func (rs *BlockReplayStream) NextBatch(buf []Access) int {
	k := 0
	for k < len(buf) {
		if rs.pos >= len(rs.dec) {
			if rs.next >= len(rs.r.blocks) {
				break
			}
			if int(rs.r.blocks[rs.next].count) <= len(buf)-k {
				k += rs.decode(buf[k:])
				continue
			}
			if !rs.fill() {
				break
			}
		}
		n := copy(buf[k:], rs.dec[rs.pos:])
		rs.pos += n
		k += n
	}
	return k
}

// NextBlock implements BlockSource.
func (rs *BlockReplayStream) NextBlock(max int) []Access {
	if max <= 0 {
		return nil
	}
	if rs.pos >= len(rs.dec) && !rs.fill() {
		return nil
	}
	w := rs.dec[rs.pos:]
	if len(w) > max {
		w = w[:max]
	}
	rs.pos += len(w)
	return w
}

// DecodeBlock implements BlockSource.
func (rs *BlockReplayStream) DecodeBlock(buf []Access) int {
	if rs.pos < len(rs.dec) {
		// Unaligned leftover (the stream was partially consumed through
		// Next/NextBatch first): drain it by copy so the cursor realigns.
		n := copy(buf, rs.dec[rs.pos:])
		rs.pos += n
		return n
	}
	if rs.next >= len(rs.r.blocks) {
		return 0
	}
	if int(rs.r.blocks[rs.next].count) > len(buf) {
		rs.fill()
		n := copy(buf, rs.dec)
		rs.pos = n
		return n
	}
	return rs.decode(buf)
}

// BlockStats summarizes a recording's encoded shape (pccsim -char prints
// it).
type BlockStats struct {
	Blocks         int
	Accesses       uint64
	Bytes          int
	BytesPerAccess float64
	// SingleThreadBlocks counts blocks whose accesses all share one thread
	// (encoded without a run-length column).
	SingleThreadBlocks int
	// WriteBlocks counts blocks carrying a write bitmap.
	WriteBlocks int
	// MultiBaseBlocks counts blocks in the multi-base layout.
	MultiBaseBlocks int
	// MultiBaseDeltas counts the deltas of those blocks, one per access;
	// they are included in DeltaBytes.
	MultiBaseDeltas uint64
	// DeltaBytes histograms the encoded width of the address deltas:
	// DeltaBytes[i] deltas took i+1 payload bytes.
	DeltaBytes [8]uint64
}

// Stats scans the recording and reports its encoded shape.
func (r *BlockRecording) Stats() BlockStats {
	var st BlockStats
	for _, ref := range r.blocks {
		st.add(ref)
	}
	return st
}

// add counts one encoded block into st.
func (st *BlockStats) add(ref blockRef) {
	st.Blocks++
	st.Accesses += uint64(ref.count)
	st.Bytes += len(ref.data)
	st.BytesPerAccess = float64(st.Bytes) / float64(st.Accesses)
	data := ref.data
	_, off, err := peekBlockCount(data, 0)
	if err != nil || off >= len(data) {
		return // unreachable on recordings we built or validated
	}
	flags := data[off]
	off++
	if flags&flagWrites != 0 {
		st.WriteBlocks++
	}
	if flags&flagThreads == 0 {
		st.SingleThreadBlocks++
	}
	// A single-base block has one delta per access but the first, behind
	// its base address; a multi-base block has one per access, behind its
	// four registers.
	nd, bases := int(ref.count)-1, 1
	if flags&flagMultiBase != 0 {
		nd, bases = int(ref.count), baseRegs
		st.MultiBaseBlocks++
		st.MultiBaseDeltas += uint64(nd)
	}
	for k := 0; k < bases && err == nil; k++ {
		_, off, err = uvarintAt(data, off)
	}
	if err != nil {
		return
	}
	if flags&flagUniform != 0 {
		// Uniform blocks carry one width byte and no control column.
		if nd > 0 && off < len(data) {
			if w := int(data[off]); w >= 1 && w <= 8 {
				st.DeltaBytes[w-1] += uint64(nd)
			}
		}
		return
	}
	// Delta widths are read straight off the control column.
	if off+(nd+1)/2 > len(data) {
		return
	}
	ctrl := data[off : off+(nd+1)/2]
	for i := 0; i < nd; i++ {
		if w := int(ctrl[i>>1]>>((i&1)*4)) & 0xf; w < len(st.DeltaBytes) {
			st.DeltaBytes[w]++
		}
	}
}

// String renders the stats as the one-per-line table the CLI tools print.
func (st BlockStats) String() string {
	s := fmt.Sprintf("blocks=%d accesses=%d bytes=%d bytes/access=%.3f single-thread-blocks=%d write-blocks=%d multi-base-blocks=%d multi-base-deltas=%d",
		st.Blocks, st.Accesses, st.Bytes, st.BytesPerAccess, st.SingleThreadBlocks, st.WriteBlocks,
		st.MultiBaseBlocks, st.MultiBaseDeltas)
	for i, c := range st.DeltaBytes {
		if c > 0 {
			s += fmt.Sprintf(" delta%dB=%d", i+1, c)
		}
	}
	return s
}
