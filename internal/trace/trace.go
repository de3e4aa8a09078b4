// Package trace defines the canonical memory-reference record exchanged
// between the execution engine and the cache emulator, plus the compact
// binary codec the memoized trace store keeps captured streams in, so a
// stream is captured once and replayed through many cache
// configurations (the replay engine in internal/core).
//
// The wire format is a file header ("CMPT" + version byte 4) followed by
// blocks of up to BlockLen delta records: a count byte, one packed
// header byte per record (kind, core-elision and size-elision flags, the
// delta's byte length), then each record's fields — the core and size
// bytes unless elided, and the address as a little-endian zigzag delta
// against the issuing core's previous one. Every block but a stream's
// last holds BlockLen records. Typical records shrink to 2-4 bytes, 4-8x
// below a fixed 16-byte record, since the DEX scheduler emits long
// same-core slices of local references; and with the headers first a
// decoder finds every record's fields without waiting on the last one.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"cmpmem/internal/mem"
)

// Ref is one memory reference as observed on the front-side bus.
type Ref struct {
	// Addr is the guest physical address.
	Addr mem.Addr
	// Core is the virtual core that issued the reference.
	Core uint8
	// Size is the access size in bytes (1..255).
	Size uint8
	// Kind is load or store.
	Kind mem.Kind
}

// String renders the reference for diagnostics.
func (r Ref) String() string {
	return fmt.Sprintf("core%-2d %-5s %#x/%d", r.Core, r.Kind, uint64(r.Addr), r.Size)
}

// Units returns the index of the first and the last 1<<shift-byte unit
// (line or sector) the reference covers, shift < 64: its regulation. A
// zero size counts as one byte.
func (r Ref) Units(shift uint) (first, last uint64) {
	return uint64(r.Addr) >> (shift & 63), (uint64(r.Addr) + uint64(max(r.Size, 1)) - 1) >> (shift & 63)
}

// magic is the 8-byte file header: "CMPT" plus the codec version byte.
// Any other header, an earlier codec version's included, is ErrBadMagic.
var magic = [8]byte{'C', 'M', 'P', 'T', 4, 0, 0, 0}

// BlockLen is the most records a block holds, and MaxBlockSize its most
// bytes: the count, BlockLen headers, and BlockLen records' core and size
// bytes and 8-byte deltas. The codec's loops index a window of bytes from
// a block's start, and its masked delta load reads up to slack bytes
// past the block's end.
const (
	BlockLen     = 64
	MaxBlockSize = 1 + BlockLen + BlockLen*10
	window       = 1 << 10
	slack        = 8
)

// Header-byte fields. Bits 3-5 hold the delta's length code: code c
// stores the zigzag delta in c bytes for c <= 6, and code 7 in all 8.
// The reserved bits must be zero: a block whose headers set them fails
// loudly instead of decoding to garbage.
const (
	hdrStore    = 1 << 0 // kind is store (load otherwise)
	hdrSameCore = 1 << 1 // core byte elided: same core as previous record
	hdrSize8    = 1 << 2 // size byte elided: the common 8-byte access
	hdrLenShift = 3      // delta length code, 3 bits
	hdrReserved = 0xc0
)

// deltaLen gives a length code's delta bytes; fields, for a header
// byte, where its record's size byte and delta start among its fields,
// the mask keeping the delta of an 8-byte load, and where the next
// record's fields start.
var (
	deltaLen = [8]uint8{0, 1, 2, 3, 4, 5, 6, 8}
	fields   = func() (t [256]struct {
		mask              uint64
		size, delta, next uint8
	}) {
		for h := range t {
			n := deltaLen[h>>hdrLenShift&7]
			t[h].size = uint8(^h >> 1 & 1)
			t[h].delta = t[h].size + uint8(^h>>2&1)
			t[h].mask = 1<<(8*n) - 1
			t[h].next = t[h].delta + n
		}
		return t
	}()
)

// ErrBadMagic reports a trace stream that does not begin with the
// expected file header.
var ErrBadMagic = errors.New("trace: bad magic (not a cmpmem trace file)")

// errTruncated reports a block whose bytes run past the stream's end.
var errTruncated = fmt.Errorf("trace: truncated block: %w", io.ErrUnexpectedEOF)

// AppendHeader appends the file header to dst.
func AppendHeader(dst []byte) []byte { return append(dst, magic[:]...) }

// Encoder is the block encoder. It holds the delta state (each core's
// last address, the previous record's core) and the open block's
// records, so a stream's records all pass through one Encoder, in order.
type Encoder struct {
	last     [256]mem.Addr
	prevCore uint8
	open     [BlockLen]Ref // the open block's records, encoded once it fills
	nopen    int
	encoded  uint64 // records in the appended blocks
}

// Count returns the number of records the Encoder has taken.
func (e *Encoder) Count() uint64 { return e.encoded + uint64(e.nopen) }

// AppendBlocks takes refs and appends to dst every block they complete;
// the open block's records wait for more records or Flush. A kind the
// codec cannot carry ends the stream before it: the records ahead of it
// are taken, their last block closed, and the error returned.
func (e *Encoder) AppendBlocks(dst []byte, refs []Ref) ([]byte, error) {
	var err error
	for i := range refs {
		if refs[i].Kind > mem.Store {
			refs, err = refs[:i], fmt.Errorf("trace: codec cannot encode kind %d (load/store only)", refs[i].Kind)
			break
		}
	}
	for len(refs) > 0 {
		if e.nopen == 0 && len(refs) >= BlockLen {
			dst, refs = e.appendBlock(dst, refs[:BlockLen]), refs[BlockLen:]
			continue
		}
		k := copy(e.open[e.nopen:], refs)
		refs = refs[k:]
		if e.nopen += k; e.nopen == BlockLen {
			dst = e.Flush(dst)
		}
	}
	if err != nil {
		dst = e.Flush(dst)
	}
	return dst, err
}

// Add takes one record as AppendBlocks takes a batch of one, without a
// batch its caller would build and the Encoder read back from memory.
func (e *Encoder) Add(dst []byte, r Ref) ([]byte, error) {
	if r.Kind > mem.Store {
		return e.Flush(dst), fmt.Errorf("trace: codec cannot encode kind %d (load/store only)", r.Kind)
	}
	e.open[e.nopen] = r
	if e.nopen++; e.nopen < BlockLen {
		return dst, nil
	}
	return e.Flush(dst), nil
}

// Flush appends the open block, if any: the last block of a stream, or
// a short one that the records taken after it follow.
func (e *Encoder) Flush(dst []byte) []byte {
	if n := e.nopen; n > 0 {
		e.nopen = 0
		return e.appendBlock(dst, e.open[:n])
	}
	return dst
}

// appendBlock appends refs, 1 to BlockLen loads and stores, as a block.
func (e *Encoder) appendBlock(dst []byte, refs []Ref) []byte {
	at, n := len(dst), 0
	dst = slices.Grow(dst, window+slack)
	n, e.prevCore = encode(dst[at:at+window+slack], refs, &e.last, e.prevCore)
	e.encoded += uint64(len(refs))
	return dst[:at+n]
}

// encode is appendBlock's loop, with no call and its state in locals:
// it writes refs as one block at the start of b, after a record of core,
// and returns the block's length and its last record's core. Each field
// is stored, then kept or overwritten as the cursor moves or not.
func encode(b []byte, refs []Ref, last *[256]mem.Addr, core uint8) (int, uint8) {
	b = b[: window+slack : window+slack]
	b[0] = byte(len(refs))
	hdrs := b[1 : 1+len(refs)]
	pos := 1 + len(refs)
	for i := range hdrs {
		r := &refs[i]
		hdr := byte(r.Kind) | hdrSameCore | hdrSize8
		if b[pos&(window-1)] = r.Core; r.Core != core {
			hdr, pos = hdr&^hdrSameCore, pos+1
		}
		if b[pos&(window-1)] = r.Size; r.Size != 8 {
			hdr, pos = hdr&^hdrSize8, pos+1
		}
		core = r.Core
		delta := int64(uint64(r.Addr) - uint64(last[core]))
		last[core] = r.Addr
		zig := uint64(delta)<<1 ^ uint64(delta>>63)
		code := min((bits.Len64(zig)+7)>>3, 7)
		hdrs[i] = hdr | byte(code)<<hdrLenShift
		d := pos & (window - 1)
		binary.LittleEndian.PutUint64(b[d:d+8:d+8], zig)
		pos += int(deltaLen[code])
	}
	return pos, core
}

// Writer encodes Refs to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	enc Encoder
	blk []byte // the block being written
	err error
}

// NewWriterV2 writes the file header and returns a Writer. It writes the
// one codec, version 4, a block at a time; the name keeps its old suffix
// because bench's trace.encode probe calls it by this name.
func NewWriterV2(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, blk: make([]byte, 0, window+slack)}, nil
}

// Write appends one record. Errors are sticky.
func (w *Writer) Write(r Ref) error {
	if w.err == nil {
		var blk []byte
		if blk, w.err = w.enc.Add(w.blk[:0], r); len(blk) > 0 && w.err == nil {
			w.put(blk)
		}
	}
	return w.err
}

// put writes blocks to the buffer.
func (w *Writer) put(blk []byte) {
	if _, err := w.w.Write(blk); err != nil {
		w.err = fmt.Errorf("trace: writing record: %w", err)
	}
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.enc.Count() }

// Flush closes the open block and flushes buffered records to the
// underlying writer.
func (w *Writer) Flush() error {
	if w.err == nil {
		if w.put(w.enc.Flush(w.blk[:0])); w.err == nil {
			w.err = w.w.Flush()
		}
	}
	return w.err
}

// StreamPlayer decodes an encoded trace stream (header included) with
// no per-record allocation, from chunks that cut it anywhere. A block
// near its chunk's end, or across it, is spliced into the seam buffer;
// any other is decoded in place, by the same loop.
type StreamPlayer struct {
	chunks [][]byte
	ci     int    // index of the chunk holding the cursor
	data   []byte // chunks[ci]
	pos    int    // cursor in data: the block after the open one
	err    error

	// The open block from its count byte on, in place or in seam; where
	// that byte lies; its records; the next one's index and field offset.
	blk      []byte
	bci, bat int
	cnt, idx int
	off      int
	seam     [window + slack]byte

	// Delta state, mirroring the Encoder.
	last     [256]mem.Addr
	prevCore uint8
}

// NewStreamPlayer validates the header of the stream the chunks hold in
// order and returns a player positioned at its first record.
func NewStreamPlayer(chunks ...[]byte) (*StreamPlayer, error) {
	p := &StreamPlayer{chunks: chunks}
	if p.Rewind(); p.err != nil {
		return nil, p.err
	}
	return p, nil
}

// Mark is a record boundary of a stream: where the record's block
// starts, the record's index in it, and the delta state the records
// before it left, so decoding can resume there.
type Mark struct {
	ci, pos, idx int
	last         [256]mem.Addr
	prevCore     uint8
}

// Mark returns the boundary before the record the next Next or
// NextBatch call decodes.
func (p *StreamPlayer) Mark() Mark {
	m := Mark{ci: p.ci, pos: p.pos, last: p.last, prevCore: p.prevCore}
	if p.idx < p.cnt {
		m.ci, m.pos, m.idx = p.bci, p.bat, p.idx
	}
	return m
}

// Seek resumes decoding at m, a Mark taken on a player over the same
// chunks: the records that follow are exactly those that followed m, a
// block straddling a chunk seam included. A failed player stays failed.
func (p *StreamPlayer) Seek(m Mark) {
	p.ci, p.data, p.pos = m.ci, p.chunks[m.ci], m.pos
	p.last, p.prevCore = m.last, m.prevCore
	p.cnt, p.idx = 0, 0
	if m.idx > 0 && p.open() {
		// The headers before the record place its fields.
		for _, h := range p.blk[1 : 1+m.idx] {
			p.off += int(fields[h].next)
		}
		p.idx = m.idx
	}
}

// Err returns the decode error that terminated playback, or nil after a
// clean end of stream.
func (p *StreamPlayer) Err() error { return p.err }

// Rewind resets the player to the first record.
func (p *StreamPlayer) Rewind() {
	*p = StreamPlayer{chunks: p.chunks, ci: -1}
	if p.splice(len(magic)) < len(magic) || [len(magic)]byte(p.seam[:]) != magic {
		p.err = ErrBadMagic
		return
	}
	p.advance(len(magic))
}

// splice copies up to n bytes of the stream from the cursor on into
// p.seam and returns how many it copied: fewer only at the stream's end.
func (p *StreamPlayer) splice(n int) int {
	k := copy(p.seam[:n], p.data[p.pos:])
	for ci := p.ci + 1; k < n && ci < len(p.chunks); ci++ {
		k += copy(p.seam[k:n], p.chunks[ci])
	}
	return k
}

// advance moves the cursor n bytes on, across chunk boundaries.
func (p *StreamPlayer) advance(n int) {
	for p.pos += n; p.pos >= len(p.data) && p.ci+1 < len(p.chunks); p.ci++ {
		p.pos -= len(p.data)
		p.data = p.chunks[p.ci+1]
	}
}

// open makes the block at the cursor the open block, once its count and
// every header check out and its bytes are all there, and moves the
// cursor past it. It returns false at the end of the stream or on a
// decode error (p.err), having yielded none of a bad block's records.
func (p *StreamPlayer) open() bool {
	p.advance(0)
	blk, avail := p.data[p.pos:], MaxBlockSize
	if len(blk) < window+slack {
		blk, avail = p.seam[:], p.splice(MaxBlockSize)
		if avail == 0 {
			return false
		}
	}
	cnt := int(blk[0])
	if cnt == 0 || cnt > BlockLen {
		p.err = fmt.Errorf("trace: corrupt block (count %d)", cnt)
		return false
	}
	if 1+cnt > avail {
		p.err = errTruncated
		return false
	}
	size, hdrs := 1+cnt, byte(0)
	for _, h := range blk[1 : 1+cnt] {
		size += int(fields[h].next)
		hdrs |= h
	}
	if hdrs&hdrReserved != 0 {
		p.err = fmt.Errorf("trace: corrupt record (reserved header bits %#x set)", hdrs&hdrReserved)
		return false
	}
	if size > avail {
		p.err = errTruncated
		return false
	}
	p.blk, p.bci, p.bat = blk, p.ci, p.pos
	p.cnt, p.idx, p.off = cnt, 0, 1+cnt
	p.advance(size)
	return true
}

// Next returns the next record, or ok=false at end of stream or on a
// decode error (check Err to distinguish): NextBatch over one record.
func (p *StreamPlayer) Next() (Ref, bool) {
	var r [1]Ref
	ok := p.NextBatch(r[:]) == 1
	return r[0], ok
}

// NextBatch decodes up to len(dst) records into dst and returns how
// many it produced: fewer only at end of stream or on a decode error
// (check Err). It is the replay hot path: a block's headers place its
// records' fields, so its loop's cursor moves by one add per record.
func (p *StreamPlayer) NextBatch(dst []Ref) int {
	n := 0
	for n < len(dst) && p.err == nil && (p.idx < p.cnt || p.open()) {
		out := dst[n:min(len(dst), n+p.cnt-p.idx)]
		p.off, p.prevCore = decode(out, p.blk[1+p.idx:], p.blk, &p.last, p.off, p.prevCore)
		p.idx += len(out)
		n += len(out)
	}
	return n
}

// decode is NextBatch's loop, with the field cursor, the running core
// and its last address in locals: it decodes len(out) records, whose
// headers hdrs starts with and whose fields start at b[off], after a
// record of core, and returns where the next record's fields start and
// its core. One load masked to its length reads any delta.
func decode(out []Ref, hdrs []byte, b []byte, last *[256]mem.Addr, off int, core uint8) (int, uint8) {
	hdrs = hdrs[:len(out)]
	b = b[: window+slack : window+slack]
	addr := last[core]
	for i, hdr := range hdrs {
		if hdr&hdrSameCore == 0 {
			last[core] = addr
			core = b[off&(window-1)]
			addr = last[core]
		}
		f := &fields[hdr]
		// The size byte loads ahead of its test: a few percent faster.
		size, sb := uint8(8), b[(off+int(f.size))&(window-1)]
		if hdr&hdrSize8 == 0 {
			size = sb
		}
		d := (off + int(f.delta)) & (window - 1)
		zig := binary.LittleEndian.Uint64(b[d:d+8:d+8]) & f.mask
		off += int(f.next)
		addr += mem.Addr(int64(zig>>1) ^ -int64(zig&1))
		out[i] = Ref{Addr: addr, Core: core, Size: size, Kind: mem.Kind(hdr & hdrStore)}
	}
	last[core] = addr
	return off, core
}
