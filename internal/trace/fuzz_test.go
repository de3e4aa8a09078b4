package trace

import (
	"errors"
	"testing"

	"cmpmem/internal/mem"
)

// FuzzCodecRoundTrip: any record the writer accepts must read back
// identically through the reference decoder.
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
		got, err := decodeNext(encodeAll(t, []Ref{want}))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

// FuzzCodecBatchRoundTrip: a short sequence of records derived from the
// fuzz inputs must encode and decode identically through the batch
// decoder, a Seek to a mid-stream Mark must resume it, and the same
// payload under the retired v1 or v2 version byte must be rejected at
// the header, never decoded.
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
		for v := byte(1); v <= 2; v++ {
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
// error — and the two decoders must treat them alike.
func FuzzReaderRobustness(f *testing.F) {
	f.Add([]byte("CMPT\x01\x00\x00\x00garbagegarbage"))
	f.Add([]byte("CMPT\x03\x00\x00\x00\x07\x22\x3f\x81\x80"))
	f.Add([]byte("CMPT\x04\x00\x00\x00notaversion"))
	f.Add([]byte("NOTAHEADER"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireDecodersAgree(t, data)
	})
}

// FuzzFaultDecode is the fault-injection differential: build a valid
// stream, flip one byte, and require (a) no decoder ever panics, and
// (b) the two decode loops — Next, the plain reference, and NextBatch,
// the one every replay and spill validation runs through — agree
// exactly on the corrupted bytes: same records, same success/error
// outcome. A disagreement would mean the decoder's two paths (NextBatch
// takes Next's at every chunk seam) could read one stream two ways.
func FuzzFaultDecode(f *testing.F) {
	f.Add(uint64(0x1000), uint64(64), uint8(8), 9, byte(0x81))
	f.Add(uint64(0xFFFF0000), uint64(1), uint8(30), 0, byte(0x01))
	f.Add(uint64(7), ^uint64(0)/3, uint8(3), 12, byte(0xFF))
	f.Add(uint64(0), uint64(0), uint8(2), 4, byte(0x20)) // header region
	f.Fuzz(func(t *testing.T, addr, stride uint64, n uint8, off int, mask byte) {
		// Build a small, structurally varied stream.
		refs := make([]Ref, int(n%32)+2)
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
// 1-byte chunks, cuts inside the header and inside every record field)
// and drained by a fuzzer-chosen mix of Next calls and NextBatch sizes
// must yield what the one-chunk Next loop yields: the same records, and
// an error exactly when it errs.
func FuzzChunkedDecode(f *testing.F) {
	valid := encodeAll(f, randomRefs(3, 200))
	f.Add(valid, []byte{1}, []byte{7})                 // 1-byte chunks
	f.Add(valid, []byte{13, 0, 5, 1, 2}, []byte{0, 3}) // uneven cuts, Next and NextBatch mixed
	f.Add(valid[:len(valid)-1], []byte{4, 9}, []byte{64})
	f.Add([]byte("CMPT\x03\x00\x00\x00\x07\x22\x3f\x81\x80"), []byte{3}, []byte{1})
	f.Add([]byte("NOTAHEADER"), []byte{2}, []byte{5})
	f.Fuzz(func(t *testing.T, data, cuts, batches []byte) {
		wantRefs, wantErr := decodeNext(data)

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
				t.Fatalf("chunked header: %v, one chunk: %v", err, wantErr)
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
		if (p.Err() == nil) != (wantErr == nil) {
			t.Fatalf("chunked err %v, one chunk err %v", p.Err(), wantErr)
		}
		if len(got) != len(wantRefs) {
			t.Fatalf("chunked decode: %d records, one chunk: %d", len(got), len(wantRefs))
		}
		for i := range got {
			if got[i] != wantRefs[i] {
				t.Fatalf("record %d: chunked %+v, one chunk %+v", i, got[i], wantRefs[i])
			}
		}
	})
}

// requireDecodersAgree runs Next and NextBatch (at a batch size that
// splits the stream mid-way) over the same bytes and fails on any
// difference in records or error/no-error outcome.
func requireDecodersAgree(t *testing.T, data []byte) {
	t.Helper()
	nRefs, nErr := decodeNext(data)
	bRefs, bErr := decodeBatch(data, 3)
	if (nErr == nil) != (bErr == nil) {
		t.Fatalf("decoders disagree on outcome: Next err=%v, NextBatch err=%v", nErr, bErr)
	}
	if len(nRefs) != len(bRefs) {
		t.Fatalf("decoders disagree on length: Next %d records, NextBatch %d (errs %v / %v)",
			len(nRefs), len(bRefs), nErr, bErr)
	}
	for i := range nRefs {
		if nRefs[i] != bRefs[i] {
			t.Fatalf("record %d diverges: Next %+v, NextBatch %+v", i, nRefs[i], bRefs[i])
		}
	}
}
