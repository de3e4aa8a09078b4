package trace

import (
	"errors"
	"testing"

	"cmpmem/internal/mem"
)

// FuzzCodecRoundTrip: any record the writer accepts must read back
// identically through the reference decoder and through Next.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint8(3), uint8(8), false)
	f.Add(uint64(0), uint8(255), uint8(1), true)
	f.Add(^uint64(0), uint8(127), uint8(255), false)
	f.Fuzz(func(t *testing.T, addr uint64, core uint8, size uint8, store bool) {
		kind := mem.Load
		if store {
			kind = mem.Store
		}
		want := Ref{Addr: mem.Addr(addr), Core: core, Size: size, Kind: kind}
		enc := encodeAll(t, []Ref{want})
		for _, decode := range []func([]byte) ([]Ref, error){refDecode, decodeNext} {
			got, err := decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
		}
	})
}

// FuzzCodecBatchRoundTrip: a short sequence of records derived from the
// fuzz inputs must encode and decode identically through the batch
// decoder, a Seek to a mid-stream Mark must resume it, and the same
// payload under a retired version byte (1-3) must be rejected at the
// header, never decoded.
func FuzzCodecBatchRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(8), uint8(3), uint8(8), true)
	f.Add(uint64(0), ^uint64(0), uint8(255), uint8(1), false)
	f.Add(^uint64(0), uint64(1), uint8(0), uint8(255), true)
	f.Fuzz(func(t *testing.T, addr, stride uint64, core, size uint8, store bool) {
		kind := mem.Load
		if store {
			kind = mem.Store
		}
		if size == 0 {
			size = 1
		}
		// Three records exercise delta state: same core twice (elision
		// path), then a core switch back to an earlier address.
		want := []Ref{
			{Addr: mem.Addr(addr), Core: core, Size: size, Kind: kind},
			{Addr: mem.Addr(addr + stride), Core: core, Size: 8, Kind: kind},
			{Addr: mem.Addr(addr), Core: core ^ 1, Size: size, Kind: mem.Store},
		}
		enc := encodeAll(t, want)
		got, err := decodeBatch(enc, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
		// A Mark after the first record, on the stream cut in two at
		// an input-chosen offset past the header, resumes the last two
		// records after a full decode.
		cut := len(enc) - int(addr%uint64(len(enc)-len(magic)-1)) - 1
		p, err := NewStreamPlayer(enc[:cut], enc[cut:])
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]Ref, 4)
		p.NextBatch(dst[:1])
		m := p.Mark()
		for p.NextBatch(dst) > 0 {
		}
		p.Seek(m)
		if n := p.NextBatch(dst); n != 2 || dst[0] != want[1] || dst[1] != want[2] || p.Err() != nil {
			t.Fatalf("after Seek: %d records %+v (err %v), want %+v", n, dst[:n], p.Err(), want[1:])
		}
		for v := byte(1); v <= 3; v++ {
			forged := append([]byte{}, enc...)
			forged[4] = v
			if _, err := NewStreamPlayer(forged); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("v%d version byte: got %v, want ErrBadMagic", v, err)
			}
		}
	})
}

// FuzzReaderRobustness: arbitrary bytes must never panic a decoder —
// they are rejected at the header, or parse as records, or fail with an
// error — and the decoders must treat them alike.
func FuzzReaderRobustness(f *testing.F) {
	f.Add([]byte("CMPT\x01\x00\x00\x00garbagegarbage"))
	f.Add([]byte("CMPT\x03\x00\x00\x00\x07\x22\x3f\x81\x80"))
	f.Add([]byte("CMPT\x04\x00\x00\x00\x02\x07\x1b\x05\x22\x81\x80")) // two records
	f.Add([]byte("CMPT\x04\x00\x00\x00\x00\x07"))                     // count 0
	f.Add([]byte("CMPT\x04\x00\x00\x00\x41\x07\x07"))                 // count 65
	f.Add([]byte("CMPT\x05\x00\x00\x00notaversion"))
	f.Add([]byte("NOTAHEADER"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireDecodersAgree(t, data)
	})
}

// FuzzFaultDecode is the fault-injection differential: build a valid
// stream, flip one byte, and require (a) no decoder ever panics, and
// (b) NextBatch, the loop every replay runs through, and Next agree
// exactly with the reference decoder on the corrupted bytes: same
// records, same outcome — none of a bad block's records.
func FuzzFaultDecode(f *testing.F) {
	f.Add(uint64(0x1000), uint64(64), uint8(8), 9, byte(0x81))
	f.Add(uint64(0xFFFF0000), uint64(1), uint8(30), 0, byte(0x01))
	f.Add(uint64(7), ^uint64(0)/3, uint8(3), 12, byte(0xFF))
	f.Add(uint64(0), uint64(0), uint8(2), 4, byte(0x20)) // header region
	f.Fuzz(func(t *testing.T, addr, stride uint64, n uint8, off int, mask byte) {
		// Build a small, structurally varied stream.
		refs := make([]Ref, int(n%128)+2)
		for i := range refs {
			kind := mem.Load
			if i%3 == 0 {
				kind = mem.Store
			}
			refs[i] = Ref{
				Addr: mem.Addr(addr + uint64(i)*stride),
				Core: uint8(i % 5),
				Size: uint8(1 << (i % 4)),
				Kind: kind,
			}
		}
		enc := encodeAll(t, refs)

		// Flip exactly one byte (offset wrapped into range).
		if mask == 0 {
			mask = 1
		}
		if off < 0 {
			off = -off
		}
		bad := append([]byte(nil), enc...)
		bad[off%len(bad)] ^= mask
		requireDecodersAgree(t, bad)
	})
}

// FuzzChunkedDecode: the chunk boundaries belong to the decoder. Any
// byte string cut into chunks at fuzzer-chosen places (empty chunks,
// 1-byte chunks, cuts inside the file header, a block's count byte, its
// headers and every record field) and drained by a fuzzer-chosen mix of
// Next calls and NextBatch sizes must yield what the reference decoder
// yields from the flat bytes: the same records, and the same outcome.
func FuzzChunkedDecode(f *testing.F) {
	valid := encodeAll(f, randomRefs(3, 200))
	f.Add(valid, []byte{1}, []byte{7})                 // 1-byte chunks
	f.Add(valid, []byte{13, 0, 5, 1, 2}, []byte{0, 3}) // uneven cuts, Next and NextBatch mixed
	f.Add(valid[:len(valid)-1], []byte{4, 9}, []byte{64})
	f.Add(valid[:len(magic)+1+BlockLen/2], []byte{9, 1}, []byte{5}) // cut inside the first headers
	f.Add(valid, []byte{31, 17, 2}, []byte{64, 0, 3})               // seams inside spliced blocks
	f.Add([]byte("CMPT\x04\x00\x00\x00\x02\x07\x1b\x05\x22\x81\x80"), []byte{3}, []byte{1})
	f.Add([]byte("NOTAHEADER"), []byte{2}, []byte{5})
	f.Fuzz(func(t *testing.T, data, cuts, batches []byte) {
		wantRefs, wantErr := refDecode(data)

		var chunks [][]byte
		for rest, i, idle := data, 0, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)]%32))
			}
			if idle == len(cuts) { // a whole cycle of empty cuts: stop cutting
				n = len(rest)
			}
			if n == 0 {
				idle++
			} else {
				idle = 0
			}
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		p, err := NewStreamPlayer(chunks...)
		if err != nil {
			if !errors.Is(wantErr, ErrBadMagic) || !errors.Is(err, ErrBadMagic) {
				t.Fatalf("chunked header: %v, reference: %v", err, wantErr)
			}
			return
		}
		var got []Ref
		dst := make([]Ref, 64)
		for i := 0; ; i++ {
			b := 1
			if len(batches) > 0 {
				b = int(batches[i%len(batches)] % 65)
			}
			if b == 0 {
				r, ok := p.Next()
				if !ok {
					break
				}
				got = append(got, r)
				continue
			}
			n := p.NextBatch(dst[:b])
			got = append(got, dst[:n]...)
			if n < b {
				break
			}
		}
		if !sameOutcome(p.Err(), wantErr) {
			t.Fatalf("chunked err %v, reference err %v", p.Err(), wantErr)
		}
		if len(got) != len(wantRefs) {
			t.Fatalf("chunked decode: %d records, reference: %d", len(got), len(wantRefs))
		}
		for i := range got {
			if got[i] != wantRefs[i] {
				t.Fatalf("record %d: chunked %+v, reference %+v", i, got[i], wantRefs[i])
			}
		}
	})
}

// requireDecodersAgree holds NextBatch (at a batch size that splits
// blocks) and Next to the reference decoder over the same bytes and
// fails on any difference in records or outcome.
func requireDecodersAgree(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refDecode(data)
	for name, decode := range map[string]func([]byte) ([]Ref, error){
		"Next":      decodeNext,
		"NextBatch": func(d []byte) ([]Ref, error) { return decodeBatch(d, 3) },
	} {
		got, err := decode(data)
		if errors.Is(wantErr, ErrBadMagic) != errors.Is(err, ErrBadMagic) || !sameOutcome(err, wantErr) {
			t.Fatalf("%s err %v, reference err %v", name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, reference %d (errs %v / %v)", name, len(got), len(want), err, wantErr)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d diverges: %s %+v, reference %+v", i, name, got[i], want[i])
			}
		}
	}
}
