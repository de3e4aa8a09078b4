package mem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestArenaAllocationAlignment(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("test", 1<<20)
	f := a.Float64s(3)
	if f.Base()%8 != 0 {
		t.Errorf("Float64s base %#x not 8-aligned", uint64(f.Base()))
	}
	b := a.Bytes(5)
	i32 := a.Int32s(7)
	if i32.Base()%4 != 0 {
		t.Errorf("Int32s base %#x not 4-aligned", uint64(i32.Base()))
	}
	i64 := a.Int64s(2)
	if i64.Base()%8 != 0 {
		t.Errorf("Int64s base %#x not 8-aligned", uint64(i64.Base()))
	}
	_ = b
}

// TestArenaNonOverlap property: buffers allocated from one arena never
// overlap in guest address space.
func TestArenaNonOverlap(t *testing.T) {
	type span struct{ lo, hi uint64 }
	check := func(sizes []uint16) bool {
		sp := NewSpace()
		var total uint64
		for _, s := range sizes {
			total += uint64(s) + 16
		}
		a := sp.NewArena("q", total+64)
		var spans []span
		for i, s := range sizes {
			n := int(s)%64 + 1
			var lo, hi uint64
			switch i % 4 {
			case 0:
				b := a.Float64s(n)
				lo, hi = uint64(b.Base()), uint64(b.Base())+uint64(n)*8
			case 1:
				b := a.Int32s(n)
				lo, hi = uint64(b.Base()), uint64(b.Base())+uint64(n)*4
			case 2:
				b := a.Bytes(n)
				lo, hi = uint64(b.Base()), uint64(b.Base())+uint64(n)
			default:
				b := a.Int64s(n)
				lo, hi = uint64(b.Base()), uint64(b.Base())+uint64(n)*8
			}
			for _, sp := range spans {
				if lo < sp.hi && sp.lo < hi {
					return false
				}
			}
			spans = append(spans, span{lo, hi})
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestArenasDisjoint property: different arenas occupy disjoint ranges.
func TestArenasDisjoint(t *testing.T) {
	sp := NewSpace()
	a1 := sp.NewArena("a", 3<<20)
	a2 := sp.NewArena("b", 1<<10)
	a3 := sp.NewArena("c", 5<<20)
	arenas := []*Arena{a1, a2, a3}
	for i, x := range arenas {
		for j, y := range arenas {
			if i == j {
				continue
			}
			xLo, xHi := uint64(x.base), uint64(x.base)+x.Cap()
			yLo, yHi := uint64(y.base), uint64(y.base)+y.Cap()
			if xLo < yHi && yLo < xHi {
				t.Errorf("arenas %d and %d overlap: [%#x,%#x) vs [%#x,%#x)", i, j, xLo, xHi, yLo, yHi)
			}
		}
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("small", 16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arena exhaustion")
		}
	}()
	a.Float64s(100)
}

// lastAccess remembers the most recent reference reported to it.
type lastAccess struct {
	addr Addr
	size uint8
	kind Kind
}

func (l *lastAccess) Access(addr Addr, size uint8, kind Kind) { *l = lastAccess{addr, size, kind} }
func (l *lastAccess) Exec(uint64)                             {}

// roundTrip stores v at element i of b and loads it back, checking the
// buffer's alignment and the address, size and kind of both reports.
func roundTrip[T Elem](t *testing.T, name string, b Buf[T], width uint8, i int, v T) {
	t.Helper()
	if b.Base()%Addr(width) != 0 {
		t.Errorf("%s: base %#x not %d-aligned", name, uint64(b.Base()), width)
	}
	var rec lastAccess
	addr := b.Base() + Addr(i)*Addr(width)
	b.Set(&rec, i, v)
	if want := (lastAccess{addr, width, Store}); rec != want {
		t.Errorf("%s: Set reported %+v, want %+v", name, rec, want)
	}
	if got := b.At(&rec, i); got != v {
		t.Errorf("%s: At = %v, want %v", name, got, v)
	}
	if want := (lastAccess{addr, width, Load}); rec != want {
		t.Errorf("%s: At reported %+v, want %+v", name, rec, want)
	}
	if b.Addr(i) != addr {
		t.Errorf("%s: Addr(%d) = %#x, want %#x", name, i, uint64(b.Addr(i)), uint64(addr))
	}
}

// TestTypedAccessorsRoundTrip covers all five element types. A one-byte
// buffer precedes each so that every allocation has to align up.
func TestTypedAccessorsRoundTrip(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("rt", 1<<16)
	a.Bytes(1)
	roundTrip(t, "Float64s", a.Float64s(10), 8, 3, 2.5)
	a.Bytes(1)
	roundTrip(t, "Float32s", a.Float32s(4), 4, 2, 1.5)
	a.Bytes(1)
	roundTrip(t, "Int32s", a.Int32s(10), 4, 9, -7)
	a.Bytes(1)
	roundTrip(t, "Int64s", a.Int64s(4), 8, 1, 1<<40)
	a.Bytes(1)
	roundTrip(t, "Bytes", a.Bytes(10), 1, 7, 0xAB)
}

// addrArithmetic checks, for every index, that Addr(i) is base +
// i*width and that Slice(i, n) starts at Addr(i) and aliases b.
func addrArithmetic[T Elem](t *testing.T, name string, b Buf[T], width Addr) {
	t.Helper()
	n := b.Len()
	check := func(i uint16) bool {
		idx := int(i) % n
		sub := b.Slice(idx, n)
		return b.Addr(idx) == b.Base()+Addr(idx)*width &&
			sub.Base() == b.Addr(idx) && sub.Len() == n-idx && &sub.Raw()[0] == &b.Raw()[idx]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// TestAddrArithmetic property: Addr(i) is base + i*elementSize for all
// five element types, and Slice keeps the addresses of its parent.
func TestAddrArithmetic(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("addr", 1<<20)
	addrArithmetic(t, "Float64s", a.Float64s(1000), 8)
	addrArithmetic(t, "Float32s", a.Float32s(1000), 4)
	addrArithmetic(t, "Int32s", a.Int32s(1000), 4)
	addrArithmetic(t, "Int64s", a.Int64s(1000), 8)
	addrArithmetic(t, "Bytes", a.Bytes(1000), 1)
}

func TestSliceSharesAddresses(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("slice", 1<<16)
	var rec CountingRecorder
	f := a.Float64s(100)
	sub := f.Slice(10, 20)
	if sub.Len() != 10 {
		t.Fatalf("sub len = %d, want 10", sub.Len())
	}
	if sub.Addr(0) != f.Addr(10) {
		t.Errorf("slice base mismatch: %#x vs %#x", uint64(sub.Addr(0)), uint64(f.Addr(10)))
	}
	sub.Set(&rec, 0, 9)
	if f.At(&rec, 10) != 9 {
		t.Error("slice write not visible through parent buffer")
	}
}

func TestSpaceFootprintAndMap(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("fp", 1<<20)
	a.Bytes(1000)
	a.Int32s(100) // 400 bytes
	fp := sp.Footprint()
	if fp < 1400 {
		t.Errorf("footprint %d < 1400", fp)
	}
	m := sp.Map()
	if !strings.Contains(m, "fp") {
		t.Errorf("address map missing arena label: %q", m)
	}
}

func TestNopRecorder(t *testing.T) {
	var r NopRecorder
	r.Access(0x1000, 8, Load) // must not panic
	r.Exec(5)
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("Kind strings wrong: %q, %q", Load.String(), Store.String())
	}
}

func TestRawBypassesRecorder(t *testing.T) {
	sp := NewSpace()
	a := sp.NewArena("raw", 1<<12)
	var rec CountingRecorder
	f := a.Float64s(8)
	f.Raw()[5] = 3.25
	if rec.Loads+rec.Stores != 0 {
		t.Error("Raw access must not be recorded")
	}
	if f.At(&rec, 5) != 3.25 {
		t.Error("Raw write not visible through accessor")
	}
}

func TestConcurrentArenaCreation(t *testing.T) {
	sp := NewSpace()
	done := make(chan *Arena, 16)
	for i := 0; i < 16; i++ {
		go func() { done <- sp.NewArena("conc", 1<<16) }()
	}
	seen := map[Addr]bool{}
	for i := 0; i < 16; i++ {
		a := <-done
		if seen[a.Base()] {
			t.Fatalf("duplicate arena base %#x", uint64(a.Base()))
		}
		seen[a.Base()] = true
	}
}

func BenchmarkFloat64At(b *testing.B) {
	sp := NewSpace()
	a := sp.NewArena("bench", 1<<20)
	f := a.Float64s(1024)
	var rec CountingRecorder
	r := rand.New(rand.NewSource(1))
	for i := range f.Raw() {
		f.Raw()[i] = r.Float64()
	}
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += f.At(&rec, i&1023)
	}
	_ = sum
}
