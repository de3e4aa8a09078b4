package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cmpmem/internal/mem"
)

// encodeAll writes refs through the Writer and returns the encoded
// bytes.
func encodeAll(t testing.TB, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Errors of refDecode.
var (
	errRefCorrupt   = errors.New("reference decoder: corrupt block")
	errRefTruncated = errors.New("reference decoder: truncated block")
)

// refDecode is the tests' own decoder of the v4 layout, sharing no code
// with StreamPlayer: it walks the flat bytes block by block, reads every
// field a byte at a time, and checks a whole block — its count, every
// header's reserved bits, and that all its bytes are there — before it
// yields any of the block's records.
func refDecode(data []byte) ([]Ref, error) {
	if len(data) < 8 || string(data[:8]) != "CMPT\x04\x00\x00\x00" {
		return nil, ErrBadMagic
	}
	var last [256]uint64
	var core uint8
	var out []Ref
	for p := 8; p < len(data); {
		n := int(data[p])
		if n < 1 || n > 64 {
			return out, errRefCorrupt
		}
		if p+1+n > len(data) {
			return out, errRefTruncated
		}
		hdrs := data[p+1 : p+1+n]
		for _, h := range hdrs {
			if h&0xc0 != 0 {
				return out, errRefCorrupt
			}
		}
		q := p + 1 + n
		blk := make([]Ref, 0, n)
		for _, h := range hdrs {
			r := Ref{Size: 8, Kind: mem.Kind(h & 1)}
			if h&2 == 0 {
				if q >= len(data) {
					return out, errRefTruncated
				}
				core, q = data[q], q+1
			}
			r.Core = core
			if h&4 == 0 {
				if q >= len(data) {
					return out, errRefTruncated
				}
				r.Size, q = data[q], q+1
			}
			width := int(h >> 3 & 7)
			if width == 7 {
				width = 8
			}
			if q+width > len(data) {
				return out, errRefTruncated
			}
			var zig uint64
			for i := width - 1; i >= 0; i-- {
				zig = zig<<8 | uint64(data[q+i])
			}
			q += width
			delta := zig >> 1
			if zig&1 != 0 {
				delta = ^delta
			}
			last[core] += delta
			r.Addr = mem.Addr(last[core])
			blk = append(blk, r)
		}
		out = append(out, blk...)
		p = q
	}
	return out, nil
}

// sameOutcome reports whether a StreamPlayer error is the reference
// decoder's kind of error: none, a truncation, or a corrupt block.
func sameOutcome(err, ref error) bool {
	switch ref {
	case nil:
		return err == nil
	case errRefTruncated:
		return errors.Is(err, io.ErrUnexpectedEOF)
	default:
		return err != nil && !errors.Is(err, io.ErrUnexpectedEOF)
	}
}

// decodeNext drains data through Next.
func decodeNext(data []byte) ([]Ref, error) {
	p, err := NewStreamPlayer(data)
	if err != nil {
		return nil, err
	}
	var out []Ref
	for r, ok := p.Next(); ok; r, ok = p.Next() {
		out = append(out, r)
	}
	return out, p.Err()
}

// decodeBatch drains data through the batch decoder, batch records at
// a time.
func decodeBatch(data []byte, batch int) ([]Ref, error) {
	p, err := NewStreamPlayer(data)
	if err != nil {
		return nil, err
	}
	var out []Ref
	dst := make([]Ref, batch)
	for n := p.NextBatch(dst); n > 0; n = p.NextBatch(dst) {
		out = append(out, dst[:n]...)
	}
	return out, p.Err()
}

// randomRefs returns n records with adversarial core interleaving.
func randomRefs(seed int64, n int) []Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{
			Addr: mem.Addr(rng.Uint64()),
			Core: uint8(rng.Intn(64)),
			Size: uint8(1 + rng.Intn(64)),
			Kind: mem.Kind(rng.Intn(2)),
		}
	}
	return refs
}

func TestCodecBatchRoundTripSmall(t *testing.T) {
	refs := []Ref{
		{Addr: 0x1000, Core: 0, Size: 8, Kind: mem.Load},
		{Addr: 0x1008, Core: 0, Size: 8, Kind: mem.Load},  // +8 delta, elided core+size
		{Addr: 0x0FF8, Core: 0, Size: 8, Kind: mem.Store}, // negative delta
		{Addr: 0xFFFF_FFFF_FFFF, Core: 31, Size: 1, Kind: mem.Store},
		{Addr: 0, Core: 255, Size: 255, Kind: mem.Load},
		{Addr: ^mem.Addr(0), Core: 255, Size: 8, Kind: mem.Store}, // wrap-scale delta
		{Addr: 4, Core: 31, Size: 4, Kind: mem.Load},              // per-core state kept across interleave
	}
	got, err := decodeBatch(encodeAll(t, refs), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(refs))
	}
	for i, want := range refs {
		if got[i] != want {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

// TestCodecBatchRoundTripProperty: any load/store sequence round-trips through
// the delta codec and the batch decoder, including adversarial core
// interleavings.
func TestCodecBatchRoundTripProperty(t *testing.T) {
	check := func(addrs []uint64, seed int64) bool {
		return roundTrips(addrs, seed, func(data []byte) ([]Ref, error) { return decodeBatch(data, 64) })
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// roundTrips encodes one record per address (core, size and kind drawn
// from seed) and reports whether decode returns exactly those records.
func roundTrips(addrs []uint64, seed int64, decode func([]byte) ([]Ref, error)) bool {
	rng := rand.New(rand.NewSource(seed))
	want := make([]Ref, len(addrs))
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf)
	if err != nil {
		return false
	}
	for i, a := range addrs {
		want[i] = Ref{
			Addr: mem.Addr(a),
			Core: uint8(rng.Intn(256)),
			Size: uint8(rng.Intn(255) + 1),
			Kind: mem.Kind(rng.Intn(2)),
		}
		if err := w.Write(want[i]); err != nil {
			return false
		}
	}
	if err := w.Flush(); err != nil {
		return false
	}
	got, err := decode(buf.Bytes())
	if err != nil || len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestCodecShrinksSequentialStream: a same-core strided stream must encode
// far below a fixed 16-byte record (2 bytes: header + 1-byte delta).
func TestCodecShrinksSequentialStream(t *testing.T) {
	refs := make([]Ref, 10000)
	for i := range refs {
		refs[i] = Ref{Addr: mem.Addr(0x4000 + 8*i), Core: 2, Size: 8, Kind: mem.Load}
	}
	fixed := len(magic) + 16*len(refs)
	enc := encodeAll(t, refs)
	if ratio := float64(fixed) / float64(len(enc)); ratio < 6 {
		t.Errorf("fixed/delta = %.2fx on a sequential stream, want >= 6x (fixed %d B, delta %d B)",
			ratio, fixed, len(enc))
	}
}

func TestCodecRejectsExoticKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Ref{Addr: 1, Size: 8, Kind: mem.Kind(7)}); err == nil {
		t.Error("writer accepted an unencodable kind")
	}
	if err := w.Write(Ref{Addr: 1, Size: 8}); err == nil {
		t.Error("writer error must be sticky")
	}
}

func TestCodecRejectsReservedHeaderBits(t *testing.T) {
	// One block of one record whose header sets a reserved bit.
	data := append(magic[:len(magic):len(magic)], 1, 0x80|hdrSameCore|hdrSize8|1<<hdrLenShift, 0x10)
	for name, decode := range map[string]func([]byte) ([]Ref, error){
		"reference": refDecode,
		"Next":      decodeNext,
		"NextBatch": func(d []byte) ([]Ref, error) { return decodeBatch(d, 64) },
	} {
		if refs, err := decode(data); err == nil || len(refs) != 0 {
			t.Errorf("%s accepted reserved header bits (refs %v, err %v)", name, refs, err)
		}
	}
}

func TestCodecTruncatedRecord(t *testing.T) {
	refs := []Ref{{Addr: 0xDEADBEEF, Core: 9, Size: 4, Kind: mem.Store}}
	data := encodeAll(t, refs)
	for cut := len(data) - 1; cut > len(magic); cut-- {
		for name, decode := range map[string]func([]byte) ([]Ref, error){
			"reference": refDecode,
			"Next":      decodeNext,
			"NextBatch": func(d []byte) ([]Ref, error) { return decodeBatch(d, 64) },
		} {
			if got, err := decode(data[:cut]); len(got) != 0 || (name == "reference") != (err == errRefTruncated) ||
				(name != "reference") != errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, cut at %d: %d records, err %v; want none and a truncation error", name, cut, len(got), err)
			}
		}
	}
}

// TestBadBlockYieldsNothing: a block is checked whole before any of its
// records is yielded. On a three-block stream whose middle block is cut
// short at every offset, or has a bad count or a reserved bit set in
// any header, NextBatch (at batch sizes that end inside blocks) and Next
// yield exactly the first block's records and then an error.
func TestBadBlockYieldsNothing(t *testing.T) {
	refs := randomRefs(23, 2*BlockLen+5)
	data := encodeAll(t, refs)
	second := len(magic) + blockSize(t, data[len(magic):])
	third := second + blockSize(t, data[second:])
	bad := map[string][]byte{}
	for cut := second + 1; cut < third; cut++ {
		bad[fmt.Sprintf("cut at %d", cut)] = data[:cut]
	}
	for _, count := range []byte{0, BlockLen + 1, 255} {
		c := slices.Clone(data)
		c[second] = count
		bad[fmt.Sprintf("count %d", count)] = c
	}
	for i := 0; i < BlockLen; i++ {
		c := slices.Clone(data)
		c[second+1+i] |= 0x40 << (i % 2)
		bad[fmt.Sprintf("reserved bit in header %d", i)] = c
	}
	for name, stream := range bad {
		for _, batch := range []int{0, 1, 7, 64, 4096} {
			p, err := NewStreamPlayer(stream)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainPlayer(p, batch)
			if err == nil || len(got) != BlockLen || !slices.Equal(got, refs[:BlockLen]) {
				t.Fatalf("%s, batch %d: %d records, err %v; want the first block's %d and an error", name, batch, len(got), err, BlockLen)
			}
			if strings.HasPrefix(name, "cut") != errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s, batch %d: err %v", name, batch, err)
			}
		}
	}
}

// blockSize returns the length of the well-formed block data starts with.
func blockSize(t *testing.T, data []byte) int {
	t.Helper()
	n := 1 + int(data[0])
	for _, h := range data[1:n] {
		n += int(fields[h].next)
	}
	return n
}

// drainPlayer decodes p to its end through NextBatch, batch records at a
// time, or through Next for batch 0.
func drainPlayer(p *StreamPlayer, batch int) ([]Ref, error) {
	var out []Ref
	if batch == 0 {
		for r, ok := p.Next(); ok; r, ok = p.Next() {
			out = append(out, r)
		}
		return out, p.Err()
	}
	dst := make([]Ref, batch)
	for n := p.NextBatch(dst); n > 0; n = p.NextBatch(dst) {
		out = append(out, dst[:n]...)
	}
	return out, p.Err()
}

// TestCrossVersionDetection: the version byte is part of the magic, so
// a stream is either this codec's or rejected at the header — the
// retired fixed-record v1, varint v2 and record-at-a-time v3 layouts and
// unknown versions alike, whatever follows the header.
func TestCrossVersionDetection(t *testing.T) {
	refs := []Ref{
		{Addr: 0x10_0000, Core: 1, Size: 8, Kind: mem.Load},
		{Addr: 0x10_0040, Core: 1, Size: 2, Kind: mem.Store},
		{Addr: 0xFFFF_0000_0000_0000, Core: 0, Size: 8, Kind: mem.Store},
	}
	enc := encodeAll(t, refs)
	if _, err := NewStreamPlayer(enc); err != nil {
		t.Fatalf("own header rejected: %v", err)
	}
	v1 := append([]byte("CMPT\x01\x00\x00\x00"), make([]byte, 16)...) // one well-formed v1 record
	// Two well-formed v2 records: header, core, size and varint delta,
	// then a same-core, size-8 record with a two-byte varint.
	v2 := []byte("CMPT\x02\x00\x00\x00\x01\x05\x02\x80\x01\x06\x90\x02")
	// The same three records as v3 wrote them: each a header byte (kind,
	// same-core, size-8, length code), its core and size bytes unless
	// elided, and its delta's bytes.
	v3 := []byte("CMPT\x03\x00\x00\x00" +
		"\x1c\x01\x00\x00\x20" + // load, core 1, 8 bytes, delta 0x10_0000 in 3 bytes
		"\x0b\x02\x80" + // store, same core, size 2, delta 0x40 in 1 byte
		"\x3d\x00\xff\xff\xff\xff\xff\xff\x01\x00") // store, core 0, 8 bytes, -2^48 in all 8 bytes
	for name, data := range map[string][]byte{
		"v1 file":            v1,
		"v1 byte on v4 body": append([]byte("CMPT\x01\x00\x00\x00"), enc[len(magic):]...),
		"v2 file":            v2,
		"v2 byte on v4 body": append([]byte("CMPT\x02\x00\x00\x00"), enc[len(magic):]...),
		"v3 file":            v3,
		"v3 byte on v4 body": append([]byte("CMPT\x03\x00\x00\x00"), enc[len(magic):]...),
		"version 5":          append([]byte("CMPT\x05\x00\x00\x00"), enc[len(magic):]...),
	} {
		if _, err := NewStreamPlayer(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: got %v, want ErrBadMagic", name, err)
		}
		if _, err := refDecode(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: reference decoder got %v, want ErrBadMagic", name, err)
		}
	}
}

// TestStreamPlayerMatchesReader pins both entry points to the reference
// decoder on a valid stream of many blocks: Next and NextBatch return
// the reference's records, on a first pass and again after Rewind.
func TestStreamPlayerMatchesReader(t *testing.T) {
	refs := randomRefs(11, 5000)
	data := encodeAll(t, refs)
	want, err := refDecode(data)
	if err != nil || !slices.Equal(want, refs) {
		t.Fatalf("reference decoder: %d records, err %v; want the %d written", len(want), err, len(refs))
	}
	p, err := NewStreamPlayer(data)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, batch := range []int{0, 7} {
			got, err := drainPlayer(p, batch)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("pass %d, batch %d: %d records, err %v; the reference's %d", pass, batch, len(got), err, len(want))
			}
			p.Rewind()
		}
	}
}

// TestStreamPlayerNextBatch pins the batch decode to the written
// records: arbitrary batch sizes, resume after a partial batch, and the
// same truncation errors.
func TestStreamPlayerNextBatch(t *testing.T) {
	refs := randomRefs(13, 5000)
	data := encodeAll(t, refs)
	for _, batch := range []int{1, 3, 64, 4096} {
		got, err := decodeBatch(data, batch)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(got) != len(refs) {
			t.Fatalf("batch=%d: decoded %d records, want %d", batch, len(got), len(refs))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("batch=%d record %d: got %+v, want %+v", batch, i, got[i], refs[i])
			}
		}
	}
	// Truncated streams must surface the same error through the batch
	// path.
	if _, err := decodeBatch(data[:len(data)-1], 64); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream via NextBatch: got %v, want a truncation error", err)
	}
}

func TestStreamPlayerErrors(t *testing.T) {
	if _, err := NewStreamPlayer([]byte("CMPT")); err != ErrBadMagic {
		t.Errorf("short header: got %v, want ErrBadMagic", err)
	}
	if _, err := NewStreamPlayer([]byte("notatrace")); err != ErrBadMagic {
		t.Errorf("bad magic: got %v, want ErrBadMagic", err)
	}
	data := encodeAll(t, []Ref{{Addr: 0x5000, Core: 3, Size: 8, Kind: mem.Store}})
	p, err := NewStreamPlayer(data[:len(data)-1])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if p.Err() == nil {
		t.Fatal("truncated record reported clean end of stream")
	}
	// An error is sticky until Rewind.
	if _, ok := p.Next(); ok || p.NextBatch(make([]Ref, 4)) != 0 {
		t.Fatal("decoding continued past an error")
	}
}

func TestStreamPlayerZeroAlloc(t *testing.T) {
	refs := make([]Ref, 4096)
	for i := range refs {
		refs[i] = Ref{Addr: mem.Addr(i * 64), Core: uint8(i % 8), Size: 8, Kind: mem.Load}
	}
	data := encodeAll(t, refs)
	p, err := NewStreamPlayer(data)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		p.Rewind()
		n = 0
		for _, ok := p.Next(); ok; _, ok = p.Next() {
			n++
		}
	})
	if n != len(refs) {
		t.Fatalf("decoded %d records, want %d", n, len(refs))
	}
	if allocs != 0 {
		t.Errorf("replay decode allocates %.1f per pass, want 0", allocs)
	}
}

// TestStreamPlayerSeek: a Seek to a Mark taken at any record boundary —
// every record index of both blocks, and the end of stream — resumes
// exactly the suffix one uninterrupted NextBatch decode yields, on a
// stream cut in two at every byte offset and into 1-byte chunks, so
// marks land in blocks decoded in place and in blocks spliced across a
// seam. The seeks run last to first on a player already at end of
// stream.
func TestStreamPlayerSeek(t *testing.T) {
	data := encodeAll(t, randomRefs(17, BlockLen+24))
	want, err := decodeBatch(data, 64)
	if err != nil {
		t.Fatal(err)
	}
	cuts := [][][]byte{}
	for c := 0; c <= len(data); c++ {
		cuts = append(cuts, [][]byte{data[:c], data[c:]})
	}
	var bytewise [][]byte
	for i := range data {
		bytewise = append(bytewise, data[i:i+1])
	}
	cuts = append(cuts, bytewise)

	one, dst := make([]Ref, 1), make([]Ref, 5)
	for ci, chunks := range cuts {
		p, err := NewStreamPlayer(chunks...)
		if err != nil {
			t.Fatal(err)
		}
		marks := []Mark{p.Mark()}
		for p.NextBatch(one) == 1 {
			marks = append(marks, p.Mark())
		}
		if len(marks) != len(want)+1 || p.Err() != nil {
			t.Fatalf("cut %d: %d marks (err %v), want %d", ci, len(marks), p.Err(), len(want)+1)
		}
		for i := len(marks) - 1; i >= 0; i-- {
			p.Seek(marks[i])
			var got []Ref
			for n := p.NextBatch(dst); n > 0; n = p.NextBatch(dst) {
				got = append(got, dst[:n]...)
			}
			if p.Err() != nil || len(got) != len(want)-i {
				t.Fatalf("cut %d, seek to record %d: %d records (err %v), want %d", ci, i, len(got), p.Err(), len(want)-i)
			}
			for k := range got {
				if got[k] != want[i+k] {
					t.Fatalf("cut %d, seek to record %d: record %d is %+v, want %+v", ci, i, i+k, got[k], want[i+k])
				}
			}
		}
	}
}

// TestNextBatchLengthCodes pins NextBatch's masked one-load delta
// decode to the reference decoder: records whose zigzag deltas sit at
// both edges of every length code (0; 1-6 bytes; code 7's 7-byte values
// stored in 8 bytes and 2^64-1), plus corrupt copies with reserved
// header bit 6 or 7 set, a count of 0 or 65, or a last block whose
// length code runs past the end of the stream, each cut into two chunks
// at every byte offset — inside the count byte, the headers and the
// fields — and drained by Next and by NextBatch at batch sizes 1, 3 and
// 4096. Every drain must yield the reference's records and outcome.
func TestNextBatchLengthCodes(t *testing.T) {
	zigs := []uint64{0}
	for k := 1; k <= 6; k++ {
		zigs = append(zigs, 1<<(8*(k-1)), 1<<(8*k)-1)
	}
	zigs = append(zigs, 1<<48, 1<<56-1, 1<<56, 1<<64-1)
	var refs []Ref
	var last [2]uint64 // per core: the codec's deltas are per core
	for i, z := range zigs {
		core := i % 2
		last[core] += uint64(int64(z>>1) ^ -int64(z&1))
		refs = append(refs, Ref{Addr: mem.Addr(last[core]), Core: uint8(core), Size: uint8(4 + 4*(i%3/2)), Kind: mem.Kind(i % 2)})
	}
	var enc Encoder
	valid, err := enc.AppendBlocks(AppendHeader(nil), refs)
	if err != nil {
		t.Fatal(err)
	}
	valid = enc.Flush(valid)
	// One block: its count byte, then a header per record.
	hdrs := valid[len(magic)+1 : len(magic)+1+len(refs)]
	for i, h := range hdrs {
		code := int(h >> hdrLenShift & 7)
		if want := min((bits.Len64(zigs[i])+7)/8, 7); code != want {
			t.Fatalf("zigzag delta %#x: length code %d, want %d", zigs[i], code, want)
		}
	}
	if got, err := refDecode(valid); err != nil || !slices.Equal(got, refs) {
		t.Fatalf("reference decode: %d records, err %v", len(got), err)
	}
	flip := func(at int, bit byte) []byte {
		c := slices.Clone(valid)
		c[at] |= bit
		return c
	}
	count := func(n byte) []byte {
		c := slices.Clone(valid)
		c[len(magic)] = n
		return c
	}
	// A second block whose record claims an 8-byte delta and holds 7.
	overlong := append(slices.Clone(valid), 1, hdrSameCore|hdrSize8|7<<hdrLenShift, 1, 2, 3, 4, 5, 6, 7)

	for name, data := range map[string][]byte{
		"valid":             valid,
		"bit 6, last":       flip(len(magic)+len(refs), 1<<6),
		"bit 7, mid-stream": flip(len(magic)+1+len(refs)/2, 1<<7),
		"count 0":           count(0),
		"count 65":          count(BlockLen + 1),
		"overlong":          overlong,
	} {
		want, wantErr := refDecode(data)
		switch {
		case name == "valid" && wantErr != nil,
			name == "overlong" && (wantErr != errRefTruncated || len(want) != len(refs)),
			name != "valid" && name != "overlong" && wantErr != errRefCorrupt:
			t.Fatalf("%s: reference err %v", name, wantErr)
		}
		for c := len(magic); c <= len(data); c++ {
			for _, batch := range []int{0, 1, 3, 4096} {
				p, err := NewStreamPlayer(data[:c], data[c:])
				if err != nil {
					t.Fatal(err)
				}
				got, err := drainPlayer(p, batch)
				if !sameOutcome(err, wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%s cut at %d, batch %d: %d records, err %v; reference: %d, err %v",
						name, c, batch, len(got), err, len(want), wantErr)
				}
			}
		}
	}
}
