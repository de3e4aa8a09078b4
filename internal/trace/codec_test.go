package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
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

// decodeNext drains data through the reference decoder.
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
	data := append(magic[:len(magic):len(magic)], 0x80, 0x10) // reserved bit set
	for name, decode := range map[string]func([]byte) ([]Ref, error){
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
		if _, err := decodeNext(data[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: want a truncation error, got %v", cut, err)
		}
	}
}

// TestCrossVersionDetection: the version byte is part of the magic, so
// a stream is either this codec's or rejected at the header — the
// retired fixed-record v1 and varint v2 layouts and unknown versions
// alike, whatever follows the header.
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
	for name, data := range map[string][]byte{
		"v1 file":            v1,
		"v1 byte on v3 body": append([]byte("CMPT\x01\x00\x00\x00"), enc[len(magic):]...),
		"v2 file":            v2,
		"v2 byte on v3 body": append([]byte("CMPT\x02\x00\x00\x00"), enc[len(magic):]...),
		"version 4":          append([]byte("CMPT\x04\x00\x00\x00"), enc[len(magic):]...),
	} {
		if _, err := NewStreamPlayer(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: got %v, want ErrBadMagic", name, err)
		}
	}
}

// TestStreamPlayerMatchesReader pins the two decode loops to each other
// on a valid stream: Next and NextBatch return the written records, on
// a first pass and again after Rewind.
func TestStreamPlayerMatchesReader(t *testing.T) {
	refs := randomRefs(11, 5000)
	p, err := NewStreamPlayer(encodeAll(t, refs))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Ref, 7)
	for pass := 0; pass < 2; pass++ {
		for i, want := range refs {
			got, ok := p.Next()
			if !ok {
				t.Fatalf("pass %d: stream ended at record %d: %v", pass, i, p.Err())
			}
			if got != want {
				t.Fatalf("pass %d record %d: got %+v, want %+v", pass, i, got, want)
			}
		}
		if _, ok := p.Next(); ok || p.Err() != nil {
			t.Fatalf("pass %d: want clean end of stream, ok=%v err=%v", pass, ok, p.Err())
		}
		p.Rewind()
		for i := 0; i < len(refs); {
			n := p.NextBatch(dst)
			if n == 0 {
				t.Fatalf("pass %d: batch decode ended at record %d: %v", pass, i, p.Err())
			}
			for _, got := range dst[:n] {
				if got != refs[i] {
					t.Fatalf("pass %d batch record %d: got %+v, want %+v", pass, i, got, refs[i])
				}
				i++
			}
		}
		if n := p.NextBatch(dst); n != 0 || p.Err() != nil {
			t.Fatalf("pass %d: want clean end of batch decode, n=%d err=%v", pass, n, p.Err())
		}
		p.Rewind()
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

// TestStreamPlayerSeek: a Seek to a Mark taken at any record boundary,
// the end of stream included, resumes exactly the suffix one
// uninterrupted NextBatch decode yields — on a stream cut in two at
// every byte offset and into 1-byte chunks, so marks land on both sides
// of seams and inside records that straddle them. The seeks run last to
// first on a player already at end of stream.
func TestStreamPlayerSeek(t *testing.T) {
	data := encodeAll(t, randomRefs(17, 24))
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
// decode to Next: records whose zigzag deltas sit at both edges of every
// length code (0; 1-6 bytes; code 7's 7-byte values stored in 8 bytes
// and 2^64-1), plus corrupt copies with reserved header bit 6 or 7 set
// or a last record whose length code runs past the end of the stream,
// each cut into two chunks at every byte offset and drained by Next and
// by NextBatch at batch sizes 1, 3 and 4096. Every drain must yield the
// one-chunk Next drain's records and error.
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
	// Encode record by record to check each length code and keep each
	// record's offset.
	var enc Encoder
	valid := AppendHeader(nil)
	starts := make([]int, len(refs))
	for i, r := range refs {
		starts[i] = len(valid)
		var err error
		if valid, err = enc.Append(valid, r); err != nil {
			t.Fatal(err)
		}
		code := int(valid[starts[i]] >> hdrLenShift & 7)
		if want := min((bits.Len64(zigs[i])+7)/8, 7); code != want {
			t.Fatalf("zigzag delta %#x: length code %d, want %d", zigs[i], code, want)
		}
		if got, want := len(valid)-starts[i], 1+int(deltaLen[code])+int(^valid[starts[i]]>>1&1)+int(^valid[starts[i]]>>2&1); got != want {
			t.Fatalf("zigzag delta %#x: %d-byte record, want %d", zigs[i], got, want)
		}
	}
	if got, err := decodeNext(valid); err != nil || len(got) != len(refs) || got[len(got)-1] != refs[len(refs)-1] {
		t.Fatalf("reference decode: %d records, err %v", len(got), err)
	}
	flip := func(at int, bit byte) []byte {
		c := append([]byte(nil), valid...)
		c[at] |= bit
		return c
	}
	// The last record claims an 8-byte delta and holds 7.
	overlong := append(append([]byte(nil), valid...), hdrSameCore|hdrSize8|7<<hdrLenShift, 1, 2, 3, 4, 5, 6, 7)

	drain := func(p *StreamPlayer, batch int) ([]Ref, error) {
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
	for name, data := range map[string][]byte{
		"valid":             valid,
		"bit 6, last":       flip(starts[len(starts)-1], 1<<6),
		"bit 7, mid-stream": flip(starts[len(starts)/2], 1<<7),
		"overlong":          overlong,
	} {
		want, wantErr := decodeNext(data)
		switch {
		case name == "valid" && wantErr != nil,
			name == "overlong" && !errors.Is(wantErr, io.ErrUnexpectedEOF),
			name != "valid" && name != "overlong" && (wantErr == nil || !strings.Contains(wantErr.Error(), "reserved")):
			t.Fatalf("%s: Next err %v", name, wantErr)
		}
		for c := len(magic); c <= len(data); c++ {
			for _, batch := range []int{0, 1, 3, 4096} {
				p, err := NewStreamPlayer(data[:c], data[c:])
				if err != nil {
					t.Fatal(err)
				}
				got, err := drain(p, batch)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || len(got) != len(want) {
					t.Fatalf("%s cut at %d, batch %d: %d records, err %v; one chunk: %d, err %v",
						name, c, batch, len(got), err, len(want), wantErr)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s cut at %d, batch %d: record %d is %+v, one chunk's %+v", name, c, batch, i, got[i], want[i])
					}
				}
			}
		}
	}
}
