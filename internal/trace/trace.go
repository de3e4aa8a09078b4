// Package trace defines the canonical memory-reference record exchanged
// between the execution engine and the cache emulator, plus compact
// binary codecs so traces can be captured once (cmd/tracegen, the
// memoized trace store) and replayed through many cache configurations
// (cmd/cachesim, the replay engine in internal/core).
//
// Two wire formats share one file header ("CMPT" + version byte):
//
//   - v1 is the original fixed 16-byte record: 8-byte address plus
//     core/size/kind bytes and padding. Simple, seekable, alignment-
//     friendly.
//   - v2 is a delta-varint encoding: one packed header byte (kind,
//     core-elision, size-elision flags), optional core and size bytes,
//     and the reference address as a zigzag varint delta against the
//     issuing core's previous address. Because the DEX scheduler emits
//     long same-core slices of spatially local references, typical
//     records shrink to 2-4 bytes — a 4-8x footprint reduction that
//     lets full-scale streams stay resident in the trace store.
//
// NewReader auto-detects the version, so every consumer reads both.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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

// Version1 and Version2 identify the two wire formats.
const (
	Version1 = 1
	Version2 = 2
)

// magicFor builds the 8-byte file header for a codec version.
func magicFor(version byte) [8]byte {
	return [8]byte{'C', 'M', 'P', 'T', version, 0, 0, 0}
}

// recSizeV1 is the v1 on-disk record size: 8 (addr) + 1 (core) +
// 1 (size) + 1 (kind) + 5 reserved/padding = 16 bytes, keeping records
// naturally aligned and the format stable.
const recSizeV1 = 16

// maxRecSizeV2 bounds a v2 record: header + core + size + 10-byte
// varint.
const maxRecSizeV2 = 13

// v2 header-byte flags. The remaining bits are reserved and must be
// zero; the reader rejects records that set them, so corrupt or
// misdetected streams fail loudly instead of decoding to garbage.
const (
	hdrStore    = 1 << 0 // kind is store (load otherwise)
	hdrSameCore = 1 << 1 // core byte elided: same core as previous record
	hdrSize8    = 1 << 2 // size byte elided: the common 8-byte access
	hdrReserved = ^byte(hdrStore | hdrSameCore | hdrSize8)
)

// ErrBadMagic reports a trace stream that does not begin with the
// expected file header.
var ErrBadMagic = errors.New("trace: bad magic (not a cmpmem trace file)")

// Writer encodes Refs to an io.Writer in the selected codec version.
type Writer struct {
	w       *bufio.Writer
	version byte
	buf     [recSizeV1]byte
	count   uint64
	err     error

	// v2 delta state: last address per issuing core, and the previous
	// record's core for the same-core elision.
	last     [256]mem.Addr
	prevCore uint8
}

// NewWriter writes a v1 file header and returns a Writer (the original
// fixed 16-byte format, kept for compatibility).
func NewWriter(w io.Writer) (*Writer, error) {
	return newWriter(w, Version1)
}

// NewWriterV2 writes a v2 file header and returns a delta-varint
// Writer. v2 traces are typically 4-8x smaller than v1 and are the
// default capture format.
func NewWriterV2(w io.Writer) (*Writer, error) {
	return newWriter(w, Version2)
}

func newWriter(w io.Writer, version byte) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	magic := magicFor(version)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, version: version}, nil
}

// Version returns the codec version being written.
func (w *Writer) Version() int { return int(w.version) }

// Write appends one record. Errors are sticky.
func (w *Writer) Write(r Ref) error {
	if w.err != nil {
		return w.err
	}
	var err error
	if w.version == Version2 {
		err = w.writeV2(r)
	} else {
		err = w.writeV1(r)
	}
	if err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

func (w *Writer) writeV1(r Ref) error {
	binary.LittleEndian.PutUint64(w.buf[0:8], uint64(r.Addr))
	w.buf[8] = r.Core
	w.buf[9] = r.Size
	w.buf[10] = byte(r.Kind)
	w.buf[11], w.buf[12], w.buf[13], w.buf[14], w.buf[15] = 0, 0, 0, 0, 0
	if _, err := w.w.Write(w.buf[:recSizeV1]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	return nil
}

func (w *Writer) writeV2(r Ref) error {
	if r.Kind > mem.Store {
		return fmt.Errorf("trace: v2 codec cannot encode kind %d (load/store only)", r.Kind)
	}
	hdr := byte(0)
	if r.Kind == mem.Store {
		hdr |= hdrStore
	}
	n := 1
	if r.Core == w.prevCore {
		hdr |= hdrSameCore
	} else {
		w.buf[n] = r.Core
		n++
	}
	if r.Size == 8 {
		hdr |= hdrSize8
	} else {
		w.buf[n] = r.Size
		n++
	}
	delta := int64(uint64(r.Addr) - uint64(w.last[r.Core]))
	zig := uint64(delta)<<1 ^ uint64(delta>>63)
	n += binary.PutUvarint(w.buf[n:], zig)
	w.buf[0] = hdr
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.last[r.Core] = r.Addr
	w.prevCore = r.Core
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

// Reader decodes Refs from an io.Reader, auto-detecting the codec
// version from the file header.
type Reader struct {
	r       *bufio.Reader
	version byte
	buf     [recSizeV1]byte

	// v2 delta state, mirroring the Writer.
	last     [256]mem.Addr
	prevCore uint8
}

// NewReader validates the file header, detects the codec version, and
// returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	switch {
	case hdr == magicFor(Version1):
		return &Reader{r: br, version: Version1}, nil
	case hdr == magicFor(Version2):
		return &Reader{r: br, version: Version2}, nil
	}
	return nil, ErrBadMagic
}

// Version returns the detected codec version.
func (r *Reader) Version() int { return int(r.version) }

// Read returns the next record, or io.EOF at end of trace.
func (r *Reader) Read() (Ref, error) {
	if r.version == Version2 {
		return r.readV2()
	}
	return r.readV1()
}

func (r *Reader) readV1() (Ref, error) {
	if _, err := io.ReadFull(r.r, r.buf[:recSizeV1]); err != nil {
		if err == io.EOF {
			return Ref{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Ref{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Ref{}, fmt.Errorf("trace: reading record: %w", err)
	}
	ref, err := decodeV1Record(r.buf[:recSizeV1])
	if err != nil {
		return Ref{}, err
	}
	return ref, nil
}

// decodeV1Record validates and decodes one fixed-width v1 record. The
// kind byte and the five reserved bytes are checked so corrupt or
// misaligned streams fail loudly instead of decoding to garbage refs.
func decodeV1Record(b []byte) (Ref, error) {
	if k := mem.Kind(b[10]); k > mem.Store {
		return Ref{}, fmt.Errorf("trace: corrupt v1 record (kind byte %d)", b[10])
	}
	if b[11]|b[12]|b[13]|b[14]|b[15] != 0 {
		return Ref{}, fmt.Errorf("trace: corrupt v1 record (reserved bytes set)")
	}
	return Ref{
		Addr: mem.Addr(binary.LittleEndian.Uint64(b[0:8])),
		Core: b[8],
		Size: b[9],
		Kind: mem.Kind(b[10]),
	}, nil
}

func (r *Reader) readV2() (Ref, error) {
	hdr, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Ref{}, io.EOF
		}
		return Ref{}, fmt.Errorf("trace: reading record: %w", err)
	}
	if hdr&hdrReserved != 0 {
		return Ref{}, fmt.Errorf("trace: corrupt v2 record (reserved header bits %#x set)", hdr&hdrReserved)
	}
	core := r.prevCore
	if hdr&hdrSameCore == 0 {
		core, err = r.r.ReadByte()
		if err != nil {
			return Ref{}, truncated(err)
		}
	}
	size := uint8(8)
	if hdr&hdrSize8 == 0 {
		size, err = r.r.ReadByte()
		if err != nil {
			return Ref{}, truncated(err)
		}
	}
	zig, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Ref{}, truncated(err)
	}
	delta := int64(zig>>1) ^ -int64(zig&1)
	addr := mem.Addr(uint64(r.last[core]) + uint64(delta))
	kind := mem.Load
	if hdr&hdrStore != 0 {
		kind = mem.Store
	}
	r.last[core] = addr
	r.prevCore = core
	return Ref{Addr: addr, Core: core, Size: size, Kind: kind}, nil
}

// truncated normalizes a mid-record read error.
func truncated(err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: reading record: %w", err)
}

// ReadAll decodes an entire trace stream into memory (auto-detecting
// the version) — the load path of the memoized trace store.
func ReadAll(rd io.Reader) ([]Ref, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	refs := make([]Ref, 0, 1<<16)
	for {
		ref, err := r.Read()
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
}

// StreamPlayer decodes an encoded trace stream (v1 or v2, including the
// file header) directly from a byte slice: the memoized trace store
// keeps streams v2-compressed in memory (~4x smaller than []Ref), and
// the replay engine walks them through this decoder with no per-record
// allocation and no io.Reader indirection.
type StreamPlayer struct {
	data    []byte
	pos     int
	version byte
	err     error

	// v2 delta state, mirroring the Writer.
	last     [256]mem.Addr
	prevCore uint8
}

// NewStreamPlayer validates the header and returns a player positioned
// at the first record.
func NewStreamPlayer(data []byte) (*StreamPlayer, error) {
	if len(data) < 8 {
		return nil, ErrBadMagic
	}
	var hdr [8]byte
	copy(hdr[:], data)
	var version byte
	switch {
	case hdr == magicFor(Version1):
		version = Version1
	case hdr == magicFor(Version2):
		version = Version2
	default:
		return nil, ErrBadMagic
	}
	return &StreamPlayer{data: data, pos: 8, version: version}, nil
}

// Version returns the detected codec version.
func (p *StreamPlayer) Version() int { return int(p.version) }

// Err returns the decode error that terminated playback, or nil after a
// clean end of stream.
func (p *StreamPlayer) Err() error { return p.err }

// Rewind resets the player to the first record.
func (p *StreamPlayer) Rewind() {
	p.pos = 8
	p.err = nil
	p.last = [256]mem.Addr{}
	p.prevCore = 0
}

// Next returns the next record, or ok=false at end of stream or on a
// decode error (check Err to distinguish).
func (p *StreamPlayer) Next() (Ref, bool) {
	if p.err != nil || p.pos >= len(p.data) {
		return Ref{}, false
	}
	if p.version == Version1 {
		if p.pos+recSizeV1 > len(p.data) {
			p.err = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
			return Ref{}, false
		}
		b := p.data[p.pos:]
		p.pos += recSizeV1
		ref, err := decodeV1Record(b)
		if err != nil {
			p.err = err
			return Ref{}, false
		}
		return ref, true
	}
	hdr := p.data[p.pos]
	p.pos++
	if hdr&hdrReserved != 0 {
		p.err = fmt.Errorf("trace: corrupt v2 record (reserved header bits %#x set)", hdr&hdrReserved)
		return Ref{}, false
	}
	core := p.prevCore
	if hdr&hdrSameCore == 0 {
		if p.pos >= len(p.data) {
			return Ref{}, p.truncate()
		}
		core = p.data[p.pos]
		p.pos++
	}
	size := uint8(8)
	if hdr&hdrSize8 == 0 {
		if p.pos >= len(p.data) {
			return Ref{}, p.truncate()
		}
		size = p.data[p.pos]
		p.pos++
	}
	zig, n := binary.Uvarint(p.data[p.pos:])
	if n == 0 {
		return Ref{}, p.truncate()
	}
	if n < 0 {
		p.err = fmt.Errorf("trace: corrupt v2 record (address delta varint overflows 64 bits)")
		return Ref{}, false
	}
	p.pos += n
	delta := int64(zig>>1) ^ -int64(zig&1)
	addr := mem.Addr(uint64(p.last[core]) + uint64(delta))
	kind := mem.Load
	if hdr&hdrStore != 0 {
		kind = mem.Store
	}
	p.last[core] = addr
	p.prevCore = core
	return Ref{Addr: addr, Core: core, Size: size, Kind: kind}, true
}

// truncate records a mid-record end of data and stops playback.
func (p *StreamPlayer) truncate() bool {
	p.err = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	return false
}

// NextBatch decodes up to len(dst) records into dst and returns how
// many were produced. It is the replay hot path's entry point: the v2
// decode loop runs with the cursor and the same-core state in locals,
// so the per-record cost is the varint decode itself rather than a call
// into Next per record. A short return means end of stream or a decode
// error (check Err). Record-for-record, the output is identical to
// repeated Next calls.
func (p *StreamPlayer) NextBatch(dst []Ref) int {
	if p.version == Version1 {
		n := 0
		for n < len(dst) {
			r, ok := p.Next()
			if !ok {
				break
			}
			dst[n] = r
			n++
		}
		return n
	}
	if p.err != nil {
		return 0
	}
	data := p.data
	pos := p.pos
	core := p.prevCore
	n := 0
	for n < len(dst) && pos < len(data) {
		hdr := data[pos]
		pos++
		if hdr&hdrReserved != 0 {
			p.err = fmt.Errorf("trace: corrupt v2 record (reserved header bits %#x set)", hdr&hdrReserved)
			break
		}
		if hdr&hdrSameCore == 0 {
			if pos >= len(data) {
				p.truncate()
				break
			}
			core = data[pos]
			pos++
		}
		size := uint8(8)
		if hdr&hdrSize8 == 0 {
			if pos >= len(data) {
				p.truncate()
				break
			}
			size = data[pos]
			pos++
		}
		zig, vn := binary.Uvarint(data[pos:])
		if vn == 0 {
			p.truncate()
			break
		}
		if vn < 0 {
			p.err = fmt.Errorf("trace: corrupt v2 record (address delta varint overflows 64 bits)")
			break
		}
		pos += vn
		delta := int64(zig>>1) ^ -int64(zig&1)
		addr := mem.Addr(uint64(p.last[core]) + uint64(delta))
		kind := mem.Load
		if hdr&hdrStore != 0 {
			kind = mem.Store
		}
		p.last[core] = addr
		dst[n] = Ref{Addr: addr, Core: core, Size: size, Kind: kind}
		n++
	}
	p.pos = pos
	p.prevCore = core
	return n
}

// Buffer is an in-memory trace used by tests and by the DEX scheduler
// to batch one time slice of references before handing them to the bus.
type Buffer struct {
	refs []Ref
}

// NewBuffer returns a Buffer with the given capacity hint.
func NewBuffer(capHint int) *Buffer {
	return &Buffer{refs: make([]Ref, 0, capHint)}
}

// Append adds one reference.
func (b *Buffer) Append(r Ref) { b.refs = append(b.refs, r) }

// Len returns the number of buffered references.
func (b *Buffer) Len() int { return len(b.refs) }

// Refs returns the underlying slice (valid until the next Reset).
func (b *Buffer) Refs() []Ref { return b.refs }

// Reset empties the buffer, retaining capacity.
func (b *Buffer) Reset() { b.refs = b.refs[:0] }
