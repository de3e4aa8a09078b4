package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// bankedCase is one decoded fuzz input: a banked geometry, a stream,
// and where the stream is cut into calls.
type bankedCase struct {
	n    int
	bank Config // one bank's configuration; the monolith is n of them
	refs []trace.Ref
	cuts []int // ascending call boundaries, ending at len(refs)
}

// decodeBankedCase reads a two-byte header — bank count 1/2/4/8,
// policy, associativity 1/2/8/64/128, sectored or not, footprint — and
// then four bytes a reference: an op byte (bit 7 cuts the stream into a
// new call before the reference, bit 6 picks load or store, the low
// three bits one of six cores), a 16-bit address, and a size of 0-255
// (straddlers and zero sizes included).
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
	c := bankedCase{n: 1 << (h0 & 3), bank: bank}
	shift := h1 >> 1 & 3 // a 64 KB to 512 KB footprint
	for i := 2; i+3 < len(data); i += 4 {
		op := data[i]
		if op&0x80 != 0 && len(c.refs) > 0 {
			c.cuts = append(c.cuts, len(c.refs))
		}
		c.refs = append(c.refs, trace.Ref{
			Addr: mem.Addr(uint64(binary.LittleEndian.Uint16(data[i+1:])) << shift),
			Size: data[i+3],
			Kind: mem.Kind(op >> 6 & 1),
			Core: op & 7 % 6,
		})
	}
	c.cuts = append(c.cuts, len(c.refs))
	return c, true
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

// touchUnits is the reference route AccessBanked is held to, written as
// the Dragonhead's AF regulates: split the reference into units (sectors
// when sectored, else lines), pick the bank by the low block-number
// bits, strip them, and Touch the bank with the rewritten address.
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
	lineShift, bankShift := uint(0), uint(0)
	for s := cfg.LineSize; s > 1; s >>= 1 {
		lineShift++
	}
	for b := len(banks); b > 1; b >>= 1 {
		bankShift++
	}
	misses := 0
	for a, last := uint64(r.Addr)&^(unit-1), uint64(r.Addr)+size-1; a <= last; a += unit {
		blk := a >> lineShift
		local := blk>>bankShift<<lineShift | a&(cfg.LineSize-1)
		if banks[blk&uint64(len(banks)-1)].Touch(mem.Addr(local), r.Kind, r.Core) {
			misses++
		}
	}
	return misses
}

// checkBanked feeds one case three ways — through AccessBanked in the
// case's calls, unit by unit through touchUnits, and through Access on
// one monolithic cache of the banks' total size — and requires every
// bank to match its reference twin exactly (Stats and Snapshot) and the
// banks' summed Stats to match the monolith. Under Random each bank's
// victim stream differs from the monolith's, so there only the
// replacement-independent counters are compared.
func checkBanked(t *testing.T, c bankedCase) {
	t.Helper()
	kernel := newBanks(t, c.n, c.bank)
	ref := newBanks(t, c.n, c.bank)
	monoCfg := c.bank
	monoCfg.Size *= uint64(c.n)
	mono := newBanks(t, 1, monoCfg)[0]

	gotMiss, prev := 0, 0
	for _, cut := range c.cuts {
		gotMiss += AccessBanked(kernel, c.refs[prev:cut])
		prev = cut
	}
	wantMiss, monoMiss := 0, 0
	for _, r := range c.refs {
		wantMiss += touchUnits(ref, r)
		monoMiss += mono.AccessRef(r)
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
// to evict in every geometry.
func bankedSeed(seed int64, h0, h1 byte, refs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 2+4*refs)
	rng.Read(data)
	data[0], data[1] = h0, h1
	// Long core runs, as the DEX scheduler emits them, so the run-length
	// tallies see both runs and switches.
	core := byte(0)
	for i := 2; i+3 < len(data); i += 4 {
		if rng.Intn(16) == 0 {
			core = byte(rng.Intn(6))
		}
		data[i] = data[i]&^7 | core
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
		if a := testing.AllocsPerRun(20, func() { AccessBanked(banks, refs) }); a != 0 {
			t.Errorf("AccessBanked over %d banks: %v allocs a call, want 0", n, a)
		}
	}
	c := newBanks(t, 1, Config{Name: "c", Size: 1 << 14, LineSize: 64, Assoc: 8})[0]
	if a := testing.AllocsPerRun(20, func() { c.AccessBatch(refs) }); a != 0 {
		t.Errorf("AccessBatch: %v allocs a call, want 0", a)
	}
}
