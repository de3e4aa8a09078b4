package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"cmpmem/internal/mem"
)

// encodeAll writes refs through the given writer constructor and
// returns the encoded bytes.
func encodeAll(t testing.TB, refs []Ref, newW func(w io.Writer) (*Writer, error)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := newW(&buf)
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

func TestV2RoundTripSmall(t *testing.T) {
	refs := []Ref{
		{Addr: 0x1000, Core: 0, Size: 8, Kind: mem.Load},
		{Addr: 0x1008, Core: 0, Size: 8, Kind: mem.Load},  // +8 delta, elided core+size
		{Addr: 0x0FF8, Core: 0, Size: 8, Kind: mem.Store}, // negative delta
		{Addr: 0xFFFF_FFFF_FFFF, Core: 31, Size: 1, Kind: mem.Store},
		{Addr: 0, Core: 255, Size: 255, Kind: mem.Load},
		{Addr: ^mem.Addr(0), Core: 255, Size: 8, Kind: mem.Store}, // wrap-scale delta
		{Addr: 4, Core: 31, Size: 4, Kind: mem.Load},              // per-core state kept across interleave
	}
	data := encodeAll(t, refs, NewWriterV2)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version2 {
		t.Fatalf("detected version %d, want 2", r.Version())
	}
	for i, want := range refs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

// TestV2RoundTripProperty: any load/store sequence round-trips through
// the delta codec, including adversarial core interleavings.
func TestV2RoundTripProperty(t *testing.T) {
	check := func(addrs []uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := make([]Ref, len(addrs))
		for i, a := range addrs {
			want[i] = Ref{
				Addr: mem.Addr(a),
				Core: uint8(rng.Intn(256)),
				Size: uint8(rng.Intn(255) + 1),
				Kind: mem.Kind(rng.Intn(2)),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriterV2(&buf)
		if err != nil {
			return false
		}
		for _, r := range want {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
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
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestV2ShrinksSequentialStream: a same-core strided stream must encode
// far below v1's 16 bytes per record (2 bytes: header + 1-byte varint).
func TestV2ShrinksSequentialStream(t *testing.T) {
	refs := make([]Ref, 10000)
	for i := range refs {
		refs[i] = Ref{Addr: mem.Addr(0x4000 + 8*i), Core: 2, Size: 8, Kind: mem.Load}
	}
	v1 := encodeAll(t, refs, NewWriter)
	v2 := encodeAll(t, refs, NewWriterV2)
	if ratio := float64(len(v1)) / float64(len(v2)); ratio < 6 {
		t.Errorf("v1/v2 = %.2fx on a sequential stream, want >= 6x (v1 %d B, v2 %d B)",
			ratio, len(v1), len(v2))
	}
}

func TestV2RejectsExoticKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Ref{Addr: 1, Size: 8, Kind: mem.Kind(7)}); err == nil {
		t.Error("v2 writer accepted an unencodable kind")
	}
	if err := w.Write(Ref{Addr: 1, Size: 8}); err == nil {
		t.Error("writer error must be sticky")
	}
}

func TestV2RejectsReservedHeaderBits(t *testing.T) {
	magic := magicFor(Version2)
	data := append(magic[:], 0x80, 0x10) // reserved bit set
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Error("reader accepted reserved header bits")
	}
}

func TestV2TruncatedRecord(t *testing.T) {
	refs := []Ref{{Addr: 0xDEADBEEF, Core: 9, Size: 4, Kind: mem.Store}}
	data := encodeAll(t, refs, NewWriterV2)
	for cut := len(data) - 1; cut > 8; cut-- {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(); err == nil || err == io.EOF {
			t.Errorf("cut at %d: want a truncation error, got %v", cut, err)
		}
	}
}

// TestCrossVersionDetection: each header version routes to its own
// decoder, and the same records written both ways read back identically.
func TestCrossVersionDetection(t *testing.T) {
	refs := []Ref{
		{Addr: 0x10_0000, Core: 1, Size: 8, Kind: mem.Load},
		{Addr: 0x10_0040, Core: 1, Size: 2, Kind: mem.Store},
		{Addr: 0xFFFF_0000_0000_0000, Core: 0, Size: 8, Kind: mem.Store},
	}
	v1 := encodeAll(t, refs, NewWriter)
	v2 := encodeAll(t, refs, NewWriterV2)
	got1, err := ReadAll(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadAll(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if got1[i] != refs[i] || got2[i] != refs[i] {
			t.Errorf("record %d diverges across versions: v1 %+v, v2 %+v, want %+v",
				i, got1[i], got2[i], refs[i])
		}
	}
}

func TestStreamPlayerMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := make([]Ref, 5000)
	for i := range refs {
		refs[i] = Ref{
			Addr: mem.Addr(rng.Uint64()),
			Core: uint8(rng.Intn(64)),
			Size: uint8(1 + rng.Intn(64)),
			Kind: mem.Kind(rng.Intn(2)),
		}
	}
	for name, newW := range map[string]func(w io.Writer) (*Writer, error){
		"v1": NewWriter, "v2": NewWriterV2,
	} {
		data := encodeAll(t, refs, newW)
		p, err := NewStreamPlayer(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pass := 0; pass < 2; pass++ {
			for i, want := range refs {
				got, ok := p.Next()
				if !ok {
					t.Fatalf("%s pass %d: stream ended at record %d: %v", name, pass, i, p.Err())
				}
				if got != want {
					t.Fatalf("%s pass %d record %d: got %+v, want %+v", name, pass, i, got, want)
				}
			}
			if _, ok := p.Next(); ok || p.Err() != nil {
				t.Fatalf("%s pass %d: want clean end of stream, ok=%v err=%v", name, pass, ok, p.Err())
			}
			p.Rewind()
		}
	}
}

// TestStreamPlayerNextBatch pins the batch decode to Next record for
// record: arbitrary batch sizes, both codec versions, resume after a
// partial batch, and the same truncation errors.
func TestStreamPlayerNextBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	refs := make([]Ref, 5000)
	for i := range refs {
		refs[i] = Ref{
			Addr: mem.Addr(rng.Uint64()),
			Core: uint8(rng.Intn(64)),
			Size: uint8(1 + rng.Intn(64)),
			Kind: mem.Kind(rng.Intn(2)),
		}
	}
	for name, newW := range map[string]func(w io.Writer) (*Writer, error){
		"v1": NewWriter, "v2": NewWriterV2,
	} {
		data := encodeAll(t, refs, newW)
		for _, batch := range []int{1, 3, 64, 4096} {
			p, err := NewStreamPlayer(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dst := make([]Ref, batch)
			var got []Ref
			for {
				n := p.NextBatch(dst)
				if n == 0 {
					break
				}
				got = append(got, dst[:n]...)
			}
			if p.Err() != nil {
				t.Fatalf("%s batch=%d: %v", name, batch, p.Err())
			}
			if len(got) != len(refs) {
				t.Fatalf("%s batch=%d: decoded %d records, want %d", name, batch, len(got), len(refs))
			}
			for i := range refs {
				if got[i] != refs[i] {
					t.Fatalf("%s batch=%d record %d: got %+v, want %+v", name, batch, i, got[i], refs[i])
				}
			}
		}
		// Truncated streams must surface the same error through the
		// batch path.
		p, err := NewStreamPlayer(data[:len(data)-1])
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]Ref, 64)
		for p.NextBatch(dst) != 0 {
		}
		if p.Err() == nil {
			t.Fatalf("%s: truncated stream decoded cleanly via NextBatch", name)
		}
	}
}

func TestStreamPlayerErrors(t *testing.T) {
	if _, err := NewStreamPlayer([]byte("CMPT")); err != ErrBadMagic {
		t.Errorf("short header: got %v, want ErrBadMagic", err)
	}
	if _, err := NewStreamPlayer([]byte("notatrace")); err != ErrBadMagic {
		t.Errorf("bad magic: got %v, want ErrBadMagic", err)
	}
	refs := []Ref{{Addr: 0x5000, Core: 3, Size: 8, Kind: mem.Store}}
	for name, newW := range map[string]func(w io.Writer) (*Writer, error){
		"v1": NewWriter, "v2": NewWriterV2,
	} {
		data := encodeAll(t, refs, newW)
		p, err := NewStreamPlayer(data[:len(data)-1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := p.Next(); ok {
			t.Fatalf("%s: truncated record decoded", name)
		}
		if p.Err() == nil {
			t.Fatalf("%s: truncated record reported clean end of stream", name)
		}
	}
	// Reserved header bits must be rejected, exactly like Reader.
	bad := append([]byte(nil), magicV2()...)
	bad = append(bad, 0x80, 0x00)
	p, err := NewStreamPlayer(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Next(); ok || p.Err() == nil {
		t.Fatalf("reserved bits: ok=%v err=%v, want decode error", ok, p.Err())
	}
}

func magicV2() []byte {
	m := magicFor(Version2)
	return m[:]
}

func TestStreamPlayerZeroAlloc(t *testing.T) {
	refs := make([]Ref, 4096)
	for i := range refs {
		refs[i] = Ref{Addr: mem.Addr(i * 64), Core: uint8(i % 8), Size: 8, Kind: mem.Load}
	}
	data := encodeAll(t, refs, NewWriterV2)
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
