package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"cmpmem/internal/mem"
)

func TestCodecRoundTripSmall(t *testing.T) {
	refs := []Ref{
		{Addr: 0x1000, Core: 0, Size: 8, Kind: mem.Load},
		{Addr: 0xFFFF_FFFF_FFFF, Core: 31, Size: 1, Kind: mem.Store},
		{Addr: 0, Core: 255, Size: 255, Kind: mem.Load},
	}
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
	if w.Count() != uint64(len(refs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(refs))
	}

	p, err := NewStreamPlayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		got, ok := p.Next()
		if !ok {
			t.Fatalf("record %d: %v", i, p.Err())
		}
		if got != want {
			t.Errorf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, ok := p.Next(); ok || p.Err() != nil {
		t.Errorf("expected a clean end of stream, got ok=%v err=%v", ok, p.Err())
	}
}

// TestCodecRoundTripProperty: any sequence of records round-trips
// through the reference decoder.
func TestCodecRoundTripProperty(t *testing.T) {
	check := func(addrs []uint64, seed int64) bool { return roundTrips(addrs, seed, decodeNext) }
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	for _, data := range []string{
		"NOTATRACEFILE###",
		"CMPT\x01\x00\x00\x00" + strings.Repeat("\x00", 16), // the retired v1 codec
		"CMPT\x02\x00\x00\x00\x06\x10",                      // the retired v2 codec
		"CMPT\x03\x00\x00",                                  // short
		"",
	} {
		if _, err := NewStreamPlayer([]byte(data)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%q: got %v, want ErrBadMagic", data, err)
		}
	}
}

// TestReaderTruncatedRecord: a stream chopped mid-record reports a
// truncation through the batch decoder, after the whole records.
func TestReaderTruncatedRecord(t *testing.T) {
	refs := []Ref{{Addr: 1, Size: 8}, {Addr: 0xDEAD_BEEF_0000, Core: 4, Size: 2}}
	data := encodeAll(t, refs)
	got, err := decodeBatch(data[:len(data)-3], 64)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("got %v, want a truncation error", err)
	}
	if len(got) != 1 || got[0] != refs[0] {
		t.Errorf("whole records before the cut: got %v, want %v", got, refs[:1])
	}
}

func TestWriterStickyError(t *testing.T) {
	w, err := NewWriterV2(&failAfter{n: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last error
	// 4-byte records: the 64 KB buffer spills twice inside the loop.
	for i := 0; i < 1<<15; i++ {
		last = w.Write(Ref{Addr: mem.Addr(i) << 20, Size: 8})
		if last != nil {
			break
		}
	}
	if last == nil {
		last = w.Flush()
	}
	if last == nil {
		t.Fatal("expected write failure")
	}
	if err := w.Write(Ref{}); err == nil {
		t.Error("error must be sticky")
	}
}

// failAfter errors after n successful writes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("boom")
	}
	f.n--
	return len(p), nil
}

func TestRefString(t *testing.T) {
	s := Ref{Addr: 0x40, Core: 3, Size: 8, Kind: mem.Store}.String()
	if !strings.Contains(s, "core3") || !strings.Contains(s, "store") {
		t.Errorf("unhelpful Ref string: %q", s)
	}
}
