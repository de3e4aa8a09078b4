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

// FuzzCodecV2RoundTrip: a short sequence of records derived from the
// fuzz inputs must encode and decode identically through the batch
// decoder, and the same payload under the retired v1 version byte must
// be rejected at the header, never decoded.
func FuzzCodecV2RoundTrip(f *testing.F) {
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
		forged := append([]byte{}, enc...)
		forged[4] = 1
		if _, err := NewStreamPlayer(forged); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("v1 version byte: got %v, want ErrBadMagic", err)
		}
	})
}

// FuzzReaderRobustness: arbitrary bytes must never panic a decoder —
// they are rejected at the header, or parse as records, or fail with an
// error — and the two decoders must treat them alike.
func FuzzReaderRobustness(f *testing.F) {
	f.Add([]byte("CMPT\x01\x00\x00\x00garbagegarbage"))
	f.Add([]byte("CMPT\x02\x00\x00\x00\x07\x22\xff\x81\x80"))
	f.Add([]byte("CMPT\x03\x00\x00\x00notaversion"))
	f.Add([]byte("NOTAHEADER"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireDecodersAgree(t, data)
	})
}

// FuzzFaultDecode is the fault-injection differential: build a valid
// stream, flip one byte, and require (a) no decoder ever panics, and
// (b) the two decode loops — Next, the plain reference that validates
// spills, and NextBatch, the one every replay runs through — agree
// exactly on the corrupted bytes: same records, same success/error
// outcome. A disagreement would mean replay could silently diverge from
// what validation accepted on a corrupt spill.
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
