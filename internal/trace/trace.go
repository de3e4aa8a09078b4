// Package trace defines the canonical memory-reference record exchanged
// between the execution engine and the cache emulator, plus the compact
// binary codec the memoized trace store keeps captured streams in, so a
// stream is captured once and replayed through many cache
// configurations (the replay engine in internal/core).
//
// The wire format is a file header ("CMPT" + version byte 2) followed by
// delta-varint records: one packed header byte (kind, core-elision,
// size-elision flags), optional core and size bytes, and the reference
// address as a zigzag varint delta against the issuing core's previous
// address. Because the DEX scheduler emits long same-core slices of
// spatially local references, typical records shrink to 2-4 bytes — a
// 4-8x reduction against a fixed 16-byte record that lets full-scale
// streams stay resident in the trace store.
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

// magic is the 8-byte file header: "CMPT" plus the codec version byte.
// Any other header, an earlier codec version's included, is ErrBadMagic.
var magic = [8]byte{'C', 'M', 'P', 'T', 2, 0, 0, 0}

// maxRecSize bounds a record: header + core + size + 10-byte varint.
const maxRecSize = 13

// Header-byte flags. The remaining bits are reserved and must be
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

// Writer encodes Refs to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	buf   [maxRecSize]byte
	count uint64
	err   error

	// Delta state: last address per issuing core, and the previous
	// record's core for the same-core elision.
	last     [256]mem.Addr
	prevCore uint8
}

// NewWriterV2 writes the file header and returns a delta-varint Writer.
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
	if err := w.write(r); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

func (w *Writer) write(r Ref) error {
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

// StreamPlayer decodes an encoded trace stream (including the file
// header) directly from a byte slice: the memoized trace store keeps
// streams compressed in memory (~4x smaller than []Ref), and the replay
// engine walks them through this decoder with no per-record allocation
// and no io.Reader indirection.
type StreamPlayer struct {
	data []byte
	pos  int
	err  error

	// Delta state, mirroring the Writer.
	last     [256]mem.Addr
	prevCore uint8
}

// NewStreamPlayer validates the header and returns a player positioned
// at the first record.
func NewStreamPlayer(data []byte) (*StreamPlayer, error) {
	if len(data) < len(magic) || [len(magic)]byte(data) != magic {
		return nil, ErrBadMagic
	}
	return &StreamPlayer{data: data, pos: len(magic)}, nil
}

// Err returns the decode error that terminated playback, or nil after a
// clean end of stream.
func (p *StreamPlayer) Err() error { return p.err }

// Rewind resets the player to the first record.
func (p *StreamPlayer) Rewind() {
	p.pos = len(magic)
	p.err = nil
	p.last = [256]mem.Addr{}
	p.prevCore = 0
}

// Next returns the next record, or ok=false at end of stream or on a
// decode error (check Err to distinguish). It is the plain reference
// decoder: NextBatch must agree with it record for record.
func (p *StreamPlayer) Next() (Ref, bool) {
	if p.err != nil || p.pos >= len(p.data) {
		return Ref{}, false
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
// many were produced. It is the replay hot path's entry point: the
// decode loop runs with the cursor and the same-core state in locals,
// so the per-record cost is the varint decode itself rather than a call
// into Next per record. A short return means end of stream or a decode
// error (check Err). Record-for-record, the output is identical to
// repeated Next calls.
func (p *StreamPlayer) NextBatch(dst []Ref) int {
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
