package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// bankedCase is one decoded fuzz input: a banked geometry, a stream,
// and where the stream is cut into calls.
type bankedCase struct {
	n    int
	bank Config // one bank's configuration; the monolith is n of them
	// refs holds references and, above msgLast, control messages, which
	// end a kernel call's stretch and which no route applies.
	refs  []trace.Ref
	cuts  []int              // ascending call boundaries, ending at len(refs)
	fills map[int][]mem.Addr // prefetch fills made before refs[i]
}

// msgLast is the highest address of a reference in a bankedCase; the
// case's control messages sit above it, as the bus's do above
// fsb.MaxRefAddr.
const msgLast = mem.Addr(1)<<32 - 1

// decodeBankedCase reads a two-byte header — bank count 1/2/4/8,
// policy, associativity 1/2/8/64/128, sectored or not, footprint — and
// then four bytes an event: an op byte, a 16-bit address, and a size of
// 0-255 (straddlers and zero sizes included). In the op byte bit 7 cuts
// the stream into a new call before the event, bit 6 picks load or
// store, the low three bits one of six cores, and bits 3-5 the event: 7
// a control message, 6 a prefetch fill of the address, anything else a
// reference.
func decodeBankedCase(data []byte) (bankedCase, bool) {
	if len(data) < 2 {
		return bankedCase{}, false
	}
	h0, h1 := data[0], data[1]
	assoc := []int{1, 2, 8, 64, 128}[int(h0>>4)%5]
	bank := Config{Name: "bank", LineSize: 64, Assoc: assoc, Repl: Policy(h0 >> 2 & 3 % 3)}
	bank.Size = uint64(assoc) * 4 * bank.LineSize // four sets a bank
	if h1&1 != 0 {
		bank.SectorSize = 16
	}
	c := bankedCase{n: 1 << (h0 & 3), bank: bank, fills: map[int][]mem.Addr{}}
	shift := h1 >> 1 & 3 // a 64 KB to 512 KB footprint
	for i := 2; i+3 < len(data); i += 4 {
		op := data[i]
		if op&0x80 != 0 && len(c.refs) > 0 {
			c.cuts = append(c.cuts, len(c.refs))
		}
		addr := mem.Addr(uint64(binary.LittleEndian.Uint16(data[i+1:])) << shift)
		switch op >> 3 & 7 {
		case 7:
			addr += msgLast + 1
		case 6:
			c.fills[len(c.refs)] = append(c.fills[len(c.refs)], addr)
			continue
		}
		c.refs = append(c.refs, trace.Ref{
			Addr: addr,
			Size: data[i+3],
			Kind: mem.Kind(op >> 6 & 1),
			Core: op & 7 % 6,
		})
	}
	c.cuts = append(c.cuts, len(c.refs))
	return c, true
}

// eachStretch hands refs to apply one stretch at a time, as the AF
// does: apply must stop exactly at the first control message and
// report how many references it applied, and the message is skipped.
func eachStretch(t *testing.T, refs []trace.Ref, apply func([]trace.Ref) int) {
	t.Helper()
	for len(refs) > 0 {
		want := len(refs)
		for j, r := range refs {
			if r.Addr > msgLast {
				want = j
				break
			}
		}
		if got := apply(refs); got != want {
			t.Fatalf("a kernel applied %d of %d references, want %d (up to the first message)", got, len(refs), want)
		}
		refs = refs[min(want+1, len(refs)):]
	}
}

func newBanks(t *testing.T, n int, cfg Config) []*Cache {
	t.Helper()
	banks := make([]*Cache, n)
	for i := range banks {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		banks[i] = c
	}
	return banks
}

// bankOf returns the bank of the unit or line at address a and the
// address that bank sees: the low block-number bits select the bank and
// are stripped.
func bankOf(banks []*Cache, a uint64) (*Cache, mem.Addr) {
	cfg := banks[0].Config()
	lineShift, bankShift := uint(bits.TrailingZeros64(cfg.LineSize)), uint(bits.TrailingZeros(uint(len(banks))))
	blk := a >> lineShift
	return banks[blk&uint64(len(banks)-1)], mem.Addr(blk>>bankShift<<lineShift | a&(cfg.LineSize-1))
}

// touchUnits is the reference route AccessBanked is held to, written as
// the Dragonhead's AF regulates: split the reference into units (sectors
// when sectored, else lines), pick the bank by the low block-number
// bits, strip them, and touch the bank (TouchPF) with the rewritten
// address.
func touchUnits(banks []*Cache, r trace.Ref) int {
	cfg := banks[0].Config()
	unit := cfg.LineSize
	if cfg.SectorSize != 0 {
		unit = cfg.SectorSize
	}
	size := uint64(r.Size)
	if size == 0 {
		size = 1
	}
	misses := 0
	for a, last := uint64(r.Addr)&^(unit-1), uint64(r.Addr)+size-1; a <= last; a += unit {
		c, local := bankOf(banks, a)
		if miss, _ := c.TouchPF(local, r.Kind, r.Core); miss {
			misses++
		}
	}
	return misses
}

// checkBanked feeds one case three ways — through AccessBanked in the
// case's calls, unit by unit through touchUnits, and through Access on
// one monolithic cache of the banks' total size — and requires every
// bank to match its reference twin exactly (Stats, Snapshot, flags and
// pfLive), each call to stop exactly at its stretch's first message,
// and the banks' summed Stats to match the monolith. Under Random each
// bank's victim stream differs from the monolith's, so there only the
// replacement-independent counters are compared.
func checkBanked(t *testing.T, c bankedCase) {
	t.Helper()
	kernel := newBanks(t, c.n, c.bank)
	ref := newBanks(t, c.n, c.bank)
	monoCfg := c.bank
	monoCfg.Size *= uint64(c.n)
	mono := newBanks(t, 1, monoCfg)[0]
	fill := func(banks []*Cache, i int) {
		for _, a := range c.fills[i] {
			b, local := bankOf(banks, uint64(a))
			b.Fill(local, 0)
		}
	}

	// A fill between two references cuts the call there.
	bounds := slices.Clone(c.cuts)
	for i := range c.fills {
		bounds = append(bounds, i)
	}
	slices.Sort(bounds)
	gotMiss, prev := 0, 0
	for _, cut := range slices.Compact(bounds) {
		eachStretch(t, c.refs[prev:cut], func(seg []trace.Ref) int {
			n, misses := AccessBanked(kernel, seg, msgLast)
			gotMiss += misses
			return n
		})
		fill(kernel, cut)
		prev = cut
	}
	wantMiss, monoMiss := 0, 0
	for i := 0; i <= len(c.refs); i++ {
		fill(ref, i)
		for _, a := range c.fills[i] {
			mono.Fill(a, 0)
		}
		if i == len(c.refs) || c.refs[i].Addr > msgLast {
			continue
		}
		wantMiss += touchUnits(ref, c.refs[i])
		monoMiss += mono.AccessRef(c.refs[i])
	}
	what := fmt.Sprintf("%d %s banks, assoc %d, sectors %d", c.n, c.bank.Repl, c.bank.Assoc, c.bank.SectorSize)
	if gotMiss != wantMiss {
		t.Fatalf("%s: AccessBanked misses %d, per-unit route %d", what, gotMiss, wantMiss)
	}
	var sum Stats
	for b := range kernel {
		if g, w := *kernel[b].Stats(), *ref[b].Stats(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: bank %d Stats diverge\nkernel:   %+v\nper-unit: %+v", what, b, g, w)
		}
		if !reflect.DeepEqual(kernel[b].Snapshot(), ref[b].Snapshot()) {
			t.Fatalf("%s: bank %d contents diverge", what, b)
		}
		if g, w := kernel[b], ref[b]; g.pfLive != w.pfLive || !reflect.DeepEqual(g.flags, w.flags) {
			t.Fatalf("%s: bank %d flags diverge (pfLive %d, per-unit %d)", what, b, g.pfLive, w.pfLive)
		}
		addStats(&sum, kernel[b].Stats())
	}
	want := *mono.Stats()
	if c.bank.Repl == Random && c.bank.Assoc > 1 {
		sum = Stats{Accesses: sum.Accesses, Loads: sum.Loads, Stores: sum.Stores, PerCoreAccesses: sum.PerCoreAccesses}
		want = Stats{Accesses: want.Accesses, Loads: want.Loads, Stores: want.Stores, PerCoreAccesses: want.PerCoreAccesses}
	} else if gotMiss != monoMiss {
		t.Fatalf("%s: AccessBanked misses %d, monolithic cache %d", what, gotMiss, monoMiss)
	}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("%s: summed bank Stats diverge from the monolith\nbanks: %+v\nmono:  %+v", what, sum, want)
	}
}

func addStats(dst, s *Stats) {
	dst.Accesses += s.Accesses
	dst.Misses += s.Misses
	dst.Loads += s.Loads
	dst.Stores += s.Stores
	dst.LoadMisses += s.LoadMisses
	dst.Writebacks += s.Writebacks
	dst.Evictions += s.Evictions
	dst.SectorFetches += s.SectorFetches
	dst.TrafficBytes += s.TrafficBytes
	for i := range s.PerCoreAccesses {
		dst.PerCoreAccesses[i] += s.PerCoreAccesses[i]
		dst.PerCoreMisses[i] += s.PerCoreMisses[i]
	}
}

// bankedSeed is a random fuzz input with the given header, long enough
// to evict in every geometry. Like the DEX scheduler's stream it runs
// one core for long stretches and revisits the last line often, so the
// kernel's counter-only loop sees long runs of hint hits and every way
// out of one: a core switch, a straddler, a store to a clean line, a
// prefetched line (one event in 64 is a fill) and a control message
// (another one in 64).
func bankedSeed(seed int64, h0, h1 byte, refs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 2+4*refs)
	rng.Read(data)
	data[0], data[1] = h0, h1
	core := byte(0)
	for i := 2; i+3 < len(data); i += 4 {
		if rng.Intn(16) == 0 {
			core = byte(rng.Intn(6))
		}
		event := byte(0)
		switch rng.Intn(64) {
		case 0:
			event = 7
		case 1:
			event = 6
		}
		data[i] = data[i]&^0x3f | event<<3 | core
		if i > 2 && rng.Intn(2) == 0 {
			copy(data[i+1:i+3], data[i-3:i-1]) // the last event's address
		}
		if rng.Intn(8) != 0 {
			data[i+3] = 1 << rng.Intn(4) // inside the line unless unaligned at its end
		}
	}
	return data
}

// TestAccessBankedMatchesPerUnit covers every header value — bank
// count, policy, associativity, sectoring — on one stream each.
func TestAccessBankedMatchesPerUnit(t *testing.T) {
	for h0 := 0; h0 < 256; h0++ {
		if h0>>4 >= 5 || h0>>2&3 == 3 {
			continue // aliases of the headers below
		}
		for _, h1 := range []byte{0, 1, 6, 7} {
			c, _ := decodeBankedCase(bankedSeed(int64(h0), byte(h0), h1, 3000))
			checkBanked(t, c)
		}
	}
}

func FuzzAccessBanked(f *testing.F) {
	f.Add(bankedSeed(1, 0x02, 0x00, 400)) // 4 LRU banks, assoc 1
	f.Add(bankedSeed(2, 0x27, 0x01, 400)) // 8 FIFO banks, assoc 8, sectored
	f.Add(bankedSeed(3, 0x39, 0x06, 400)) // 2 Random banks, assoc 64
	f.Add(bankedSeed(4, 0x40, 0x03, 400)) // 1 LRU bank, assoc 128, sectored
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*4096 {
			data = data[:2+4*4096]
		}
		if c, ok := decodeBankedCase(data); ok {
			checkBanked(t, c)
		}
	})
}

// TestAccessBankedAllocs pins the kernel, and AccessBatch over it, at
// zero allocations a call: the pending tallies live in the banks.
func TestAccessBankedAllocs(t *testing.T) {
	refs := randRefs(rand.New(rand.NewSource(5)), 4096)
	for _, n := range []int{1, 4} {
		banks := newBanks(t, n, Config{Name: "b", Size: 1 << 14, LineSize: 64, Assoc: 8})
		if a := testing.AllocsPerRun(20, func() { AccessBanked(banks, refs, msgLast) }); a != 0 {
			t.Errorf("AccessBanked over %d banks: %v allocs a call, want 0", n, a)
		}
	}
	c := newBanks(t, 1, Config{Name: "c", Size: 1 << 14, LineSize: 64, Assoc: 8})[0]
	if a := testing.AllocsPerRun(20, func() { c.AccessBatch(refs) }); a != 0 {
		t.Errorf("AccessBatch: %v allocs a call, want 0", a)
	}
}

// TestAccessBankedExits holds the kernel to the per-unit route on
// stretches built to leave its counter-only loop each way it can, in
// the middle of a run of hint hits.
func TestAccessBankedExits(t *testing.T) {
	const X, Y = mem.Addr(0x1000), mem.Addr(0x1040) // neighbouring lines
	ref := func(a mem.Addr, kind mem.Kind, core uint8) trace.Ref {
		return trace.Ref{Addr: a, Size: 8, Kind: kind, Core: core}
	}
	ld := func(a mem.Addr, core uint8) trace.Ref { return ref(a, mem.Load, core) }
	st := func(a mem.Addr, core uint8) trace.Ref { return ref(a, mem.Store, core) }
	msg := trace.Ref{Addr: msgLast + 1, Size: 8, Kind: mem.Store}
	cases := []struct {
		name  string
		refs  []trace.Ref
		fills map[int][]mem.Addr
	}{
		{"a control message mid-stretch", []trace.Ref{ld(X, 0), ld(X, 0), msg, ld(X, 0), ld(X, 0), msg, msg, ld(Y, 0), ld(X, 0), msg}, nil},
		{"a core switch", []trace.Ref{ld(X, 0), ld(X, 0), ld(X, 1), ld(X, 1), st(X, 2), ld(X, 0)}, nil},
		{"a straddler", []trace.Ref{ld(X, 0), ld(X, 0), ld(X+60, 0), ld(X, 0), ld(Y, 0), ld(Y+63, 0)}, nil},
		{"a store to a clean line", []trace.Ref{ld(X, 0), ld(X, 0), st(X, 0), st(X, 0), ld(X, 0), ld(X+2048, 0), ld(X+4096, 0), ld(X, 0)}, nil},
		{"a prefetched line", []trace.Ref{ld(Y, 0), ld(X, 0), ld(X, 0), ld(Y, 0), ld(Y, 0)}, map[int][]mem.Addr{1: {X}, 3: {Y + 2048}}},
	}
	// The bound holds on a line a bank holds too: AccessBatch, which has
	// none, applied this one as a reference, and it is the hint.
	c := newBanks(t, 1, Config{Name: "bank", Size: 512, LineSize: 64, Assoc: 2})[0]
	c.AccessBatch([]trace.Ref{msg, msg})
	if n, _ := AccessBanked([]*Cache{c}, []trace.Ref{msg}, msgLast); n != 0 {
		t.Errorf("AccessBanked applied a reference above its bound that hits the hint")
	}
	for _, tc := range cases {
		for _, n := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d banks", tc.name, n), func(t *testing.T) {
				checkBanked(t, bankedCase{
					n:     n,
					bank:  Config{Name: "bank", Size: 512, LineSize: 64, Assoc: 2},
					refs:  tc.refs,
					cuts:  []int{len(tc.refs)},
					fills: tc.fills,
				})
			})
		}
	}
}
