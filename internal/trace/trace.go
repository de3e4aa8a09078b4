// Package trace defines the canonical memory-reference record exchanged
// between the execution engine and the cache emulator, plus the compact
// binary codec the memoized trace store keeps captured streams in, so a
// stream is captured once and replayed through many cache
// configurations (the replay engine in internal/core).
//
// The wire format is a file header ("CMPT" + version byte 3) followed by
// delta records: one packed header byte (kind, core-elision and
// size-elision flags, the delta's byte length), optional core and size
// bytes, and the reference address as a little-endian zigzag delta
// against the issuing core's previous address. Because the DEX scheduler
// emits long same-core slices of spatially local references, typical
// records shrink to 2-4 bytes — a 4-8x reduction against a fixed
// 16-byte record that lets full-scale streams stay resident in the trace
// store — and a decoder finds the next record from this one's header.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

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
var magic = [8]byte{'C', 'M', 'P', 'T', 3, 0, 0, 0}

// MaxRecSize bounds a record: header + core + size + 8-byte delta.
const MaxRecSize = 11

// Header-byte fields. Bits 3-5 hold the delta's length code: code c
// stores the zigzag delta in c bytes for c <= 6, and code 7 in all 8.
// The remaining bits are reserved and must be zero; the reader rejects
// records that set them, so corrupt or misdetected streams fail loudly
// instead of decoding to garbage.
const (
	hdrStore    = 1 << 0 // kind is store (load otherwise)
	hdrSameCore = 1 << 1 // core byte elided: same core as previous record
	hdrSize8    = 1 << 2 // size byte elided: the common 8-byte access
	hdrLenShift = 3      // delta length code, 3 bits
	hdrReserved = 0xc0
)

// deltaLen and deltaMask give a length code's delta byte count and the
// mask that keeps those bytes of an 8-byte little-endian load; recLen
// gives the length of the record a header byte starts.
var (
	deltaLen  = [8]uint8{0, 1, 2, 3, 4, 5, 6, 8}
	deltaMask = [8]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<64 - 1}
	recLen    = func() (t [256]uint8) {
		for h := range t {
			t[h] = uint8(1 + ^h>>1&1 + ^h>>2&1 + int(deltaLen[h>>hdrLenShift&7]))
		}
		return t
	}()
)

// ErrBadMagic reports a trace stream that does not begin with the
// expected file header.
var ErrBadMagic = errors.New("trace: bad magic (not a cmpmem trace file)")

// AppendHeader appends the file header to dst.
func AppendHeader(dst []byte) []byte { return append(dst, magic[:]...) }

// Encoder is the record encoder. It holds the delta state — the last
// address per issuing core and the previous record's core for the
// same-core elision — so a stream's records must all pass through one
// Encoder, in order, after its header.
type Encoder struct {
	last     [256]mem.Addr
	prevCore uint8
}

// Append appends r's record, at most MaxRecSize bytes, to dst. A kind
// the codec cannot carry is an error and leaves dst and the delta state
// as they were.
func (e *Encoder) Append(dst []byte, r Ref) ([]byte, error) {
	if r.Kind > mem.Store {
		return dst, fmt.Errorf("trace: codec cannot encode kind %d (load/store only)", r.Kind)
	}
	at := len(dst)
	hdr := byte(r.Kind) // hdrStore for a store
	dst = append(dst, 0)
	if r.Core == e.prevCore {
		hdr |= hdrSameCore
	} else {
		dst = append(dst, r.Core)
	}
	if r.Size == 8 {
		hdr |= hdrSize8
	} else {
		dst = append(dst, r.Size)
	}
	delta := int64(uint64(r.Addr) - uint64(e.last[r.Core]))
	zig := uint64(delta)<<1 ^ uint64(delta>>63)
	code := min((bits.Len64(zig)+7)>>3, 7)
	dst[at] = hdr | byte(code)<<hdrLenShift
	e.last[r.Core] = r.Addr
	e.prevCore = r.Core
	// One 8-byte store; the record keeps the delta's low bytes.
	n := len(dst) + int(deltaLen[code])
	return binary.LittleEndian.AppendUint64(dst, zig)[:n], nil
}

// Writer encodes Refs to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	enc   Encoder
	buf   [MaxRecSize]byte
	count uint64
	err   error
}

// NewWriterV2 writes the file header and returns a Writer. It writes the
// one codec, version 3; the name keeps its old suffix because bench's
// trace.encode probe calls it by this name.
func NewWriterV2(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. Errors are sticky.
func (w *Writer) Write(r Ref) error {
	if w.err != nil {
		return w.err
	}
	rec, err := w.enc.Append(w.buf[:0], r)
	if err == nil {
		if _, err = w.w.Write(rec); err != nil {
			err = fmt.Errorf("trace: writing record: %w", err)
		}
	}
	if err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// StreamPlayer decodes an encoded trace stream (header included) in
// place, with no per-record allocation, from chunks that cut it anywhere
// — a record, even the header, may straddle several — so the decoder
// owns the boundaries: NextBatch's hot loop decodes the records lying
// wholly inside a chunk, Next (the seam) those near its end.
type StreamPlayer struct {
	chunks [][]byte
	ci     int    // index of the chunk being decoded
	data   []byte // chunks[ci]
	pos    int    // cursor in data
	err    error
	seam   [MaxRecSize]byte // one record spliced across a chunk boundary

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

// Mark is a record boundary of a stream: the cursor and the delta
// state the records before it left, so decoding can resume there.
type Mark struct {
	ci, pos  int
	last     [256]mem.Addr
	prevCore uint8
}

// Mark returns the boundary before the record the next Next or
// NextBatch call decodes.
func (p *StreamPlayer) Mark() Mark {
	return Mark{ci: p.ci, pos: p.pos, last: p.last, prevCore: p.prevCore}
}

// Seek resumes decoding at m, a Mark taken on a player over the same
// chunks: the records that follow are exactly those that followed m, a
// record straddling a chunk seam included. A failed player stays failed.
func (p *StreamPlayer) Seek(m Mark) {
	p.ci, p.data, p.pos = m.ci, p.chunks[m.ci], m.pos
	p.last, p.prevCore = m.last, m.prevCore
}

// Err returns the decode error that terminated playback, or nil after a
// clean end of stream.
func (p *StreamPlayer) Err() error { return p.err }

// Rewind resets the player to the first record.
func (p *StreamPlayer) Rewind() {
	*p = StreamPlayer{chunks: p.chunks, ci: -1}
	p.advance(0) // onto the first non-empty chunk
	if w := p.window(); len(w) < len(magic) || [len(magic)]byte(w) != magic {
		p.err = ErrBadMagic
		return
	}
	p.advance(len(magic))
}

// window returns at least MaxRecSize bytes of the stream from the
// cursor on (fewer only at its end), spliced into p.seam at a seam.
func (p *StreamPlayer) window() []byte {
	rest := p.data[p.pos:]
	if len(rest) >= MaxRecSize || p.ci+1 >= len(p.chunks) {
		return rest
	}
	w := append(p.seam[:0], rest...)
	for _, c := range p.chunks[p.ci+1:] {
		w = append(w, c[:min(len(c), MaxRecSize-len(w))]...)
		if len(w) == MaxRecSize {
			break
		}
	}
	return w
}

// advance moves the cursor n bytes on, across chunk boundaries.
func (p *StreamPlayer) advance(n int) {
	for p.pos += n; p.pos >= len(p.data) && p.ci+1 < len(p.chunks); p.ci++ {
		p.pos -= len(p.data)
		p.data = p.chunks[p.ci+1]
	}
}

// Next returns the next record, or ok=false at end of stream or on a
// decode error (check Err to distinguish). It is the plain reference
// decoder and NextBatch's seam path.
func (p *StreamPlayer) Next() (Ref, bool) {
	if p.err != nil {
		return Ref{}, false
	}
	w := p.window()
	if len(w) == 0 {
		return Ref{}, false
	}
	hdr := w[0]
	if hdr&hdrReserved != 0 {
		p.err = fmt.Errorf("trace: corrupt record (reserved header bits %#x set)", hdr&hdrReserved)
		return Ref{}, false
	}
	// n counts the header and the core and size bytes it does not elide.
	n := 1 + int(^hdr>>1&1) + int(^hdr>>2&1)
	vn := int(deltaLen[hdr>>hdrLenShift&7])
	if n+vn > len(w) {
		return Ref{}, p.truncate()
	}
	core, size := p.prevCore, uint8(8)
	if hdr&hdrSameCore == 0 {
		core = w[1]
	}
	if hdr&hdrSize8 == 0 {
		size = w[n-1]
	}
	var zig uint64
	for i := n + vn - 1; i >= n; i-- {
		zig = zig<<8 | uint64(w[i])
	}
	p.advance(n + vn)
	addr := p.last[core] + mem.Addr(int64(zig>>1)^-int64(zig&1))
	p.last[core] = addr
	p.prevCore = core
	return Ref{Addr: addr, Core: core, Size: size, Kind: mem.Kind(hdr & hdrStore)}, true
}

// truncate records a mid-record end of data and stops playback.
func (p *StreamPlayer) truncate() bool {
	p.err = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	return false
}

// NextBatch decodes up to len(dst) records into dst and returns how
// many were produced. It is the replay hot path's entry point: the
// decode loop runs with the cursor and the same-core state in locals,
// and while MaxRecSize bytes remain in the chunk no record can run off
// its end, so it needs no truncation checks; the last few records of a
// chunk go through Next. A short return means end of stream or a decode
// error (check Err). The output is identical to repeated Next calls.
func (p *StreamPlayer) NextBatch(dst []Ref) int {
	if p.err != nil {
		return 0
	}
	data := p.data
	pos := p.pos
	core := p.prevCore
	n := 0
	for n < len(dst) {
		if len(data)-pos < MaxRecSize {
			p.pos, p.prevCore = pos, core
			r, ok := p.Next()
			if !ok {
				return n
			}
			dst[n] = r
			n++
			data, pos, core = p.data, p.pos, p.prevCore
			continue
		}
		hdr := data[pos]
		if hdr&hdrReserved != 0 {
			p.err = fmt.Errorf("trace: corrupt record (reserved header bits %#x set)", hdr&hdrReserved)
			break
		}
		// The header alone places the delta (d) and the next record
		// (recLen), so the cursor never waits on this record's bytes.
		d := pos + 1 + int(^hdr>>1&1) + int(^hdr>>2&1)
		code := hdr >> hdrLenShift & 7
		if hdr&hdrSameCore == 0 {
			core = data[pos+1]
		}
		// Loading the size byte ahead of its test measured a few percent
		// faster on the MDS, PLSA and RSEARCH captures.
		size, sb := uint8(8), data[d-1]
		if hdr&hdrSize8 == 0 {
			size = sb
		}
		// At least 8 bytes follow the header fields: one load, masked
		// to the delta's length, reads any delta.
		zig := binary.LittleEndian.Uint64(data[d:]) & deltaMask[code]
		pos += int(recLen[hdr])
		addr := p.last[core] + mem.Addr(int64(zig>>1)^-int64(zig&1))
		p.last[core] = addr
		dst[n] = Ref{Addr: addr, Core: core, Size: size, Kind: mem.Kind(hdr & hdrStore)}
		n++
	}
	p.pos = pos
	p.prevCore = core
	return n
}
