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

// chainCase is one decoded FuzzAccessChain input: a three-rung LRU
// ladder and a stream cut into calls.
type chainCase struct {
	banks int
	rungs []Config // one bank's configuration per rung, smallest first
	refs  []trace.Ref
	cuts  []int // ascending call boundaries, ending at len(refs)
}

// decodeChainCase reads a header byte — bank count 1/2/4 and
// associativity 1/2/4/8, each rung 2, 4 and 8 sets a bank of 16 B lines
// — then three bytes a reference: an op byte (bit 7 cuts the stream
// into a new call before the reference, bit 6 picks load or store, the
// low six bits the core) and a 16-bit word whose low eleven bits are
// the address, 128 lines so sets conflict in every rung, and whose top
// five bits, mod 17, are the size (0-16 B: zero sizes and straddlers).
func decodeChainCase(data []byte) (chainCase, bool) {
	if len(data) < 1 {
		return chainCase{}, false
	}
	c := chainCase{banks: 1 << (data[0] & 3 % 3)}
	assoc := 1 << (data[0] >> 2 & 3)
	for sets := 2; sets <= 8; sets *= 2 {
		c.rungs = append(c.rungs, Config{Name: fmt.Sprintf("rung%d", sets), Size: uint64(sets*assoc) * 16, LineSize: 16, Assoc: assoc})
	}
	for i := 1; i+2 < len(data); i += 3 {
		op := data[i]
		if op&0x80 != 0 && len(c.refs) > 0 {
			c.cuts = append(c.cuts, len(c.refs))
		}
		w := binary.LittleEndian.Uint16(data[i+1:])
		c.refs = append(c.refs, trace.Ref{
			Addr: mem.Addr(w & 0x7ff),
			Size: uint8(w >> 11 % 17),
			Kind: mem.Kind(op >> 6 & 1),
			Core: op & 0x3f,
		})
	}
	c.cuts = append(c.cuts, len(c.refs))
	return c, true
}

// checkChain feeds one case through AccessChain in the case's calls and
// through AccessBanked over an independent copy of each rung, and
// requires every bank of every rung to match its copy: the full Stats,
// and residency of every line the stream touched.
func checkChain(t *testing.T, c chainCase) {
	t.Helper()
	var chain, alone [][]*Cache
	for _, cfg := range c.rungs {
		chain = append(chain, newBanks(t, c.banks, cfg))
		alone = append(alone, newBanks(t, c.banks, cfg))
	}
	prev := 0
	for _, cut := range c.cuts {
		AccessChain(chain, c.refs[prev:cut])
		prev = cut
	}
	for _, banks := range alone {
		AccessBanked(banks, c.refs)
	}
	mask := uint64(c.banks - 1)
	shift := uint(0)
	for b := c.banks; b > 1; b >>= 1 {
		shift++
	}
	for k := range chain {
		what := fmt.Sprintf("%d banks, assoc %d, rung %d", c.banks, c.rungs[k].Assoc, k)
		for b := range chain[k] {
			if g, w := *chain[k][b].Stats(), *alone[k][b].Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: bank %d Stats diverge\nchain: %+v\nalone: %+v", what, b, g, w)
			}
		}
		for _, r := range c.refs {
			last := uint64(r.Addr) + uint64(max(r.Size, 1)) - 1
			for line := uint64(r.Addr) >> 4; line <= last>>4; line++ {
				a := mem.Addr(line >> shift << 4)
				if g, w := chain[k][line&mask].Contains(a), alone[k][line&mask].Contains(a); g != w {
					t.Fatalf("%s: line %#x resident %v in the chain, %v alone", what, line, g, w)
				}
			}
		}
	}
}

// chainSeed is a random fuzz input with the given header: long core
// runs, as the DEX scheduler emits them, a store in three and a new
// call every 64 references or so.
func chainSeed(seed int64, header byte, refs int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+3*refs)
	rng.Read(data)
	data[0] = header
	core := byte(0)
	for i := 1; i+2 < len(data); i += 3 {
		if rng.Intn(16) == 0 {
			core = byte(rng.Intn(6))
		}
		data[i] = core
		if rng.Intn(3) == 0 {
			data[i] |= 0x40
		}
		if rng.Intn(64) == 0 {
			data[i] |= 0x80
		}
	}
	return data
}

// TestAccessChainMatchesBanked covers every header on one long stream
// each.
func TestAccessChainMatchesBanked(t *testing.T) {
	for h := 0; h < 16; h++ {
		if h&3 == 3 {
			continue // an alias of bank count 1
		}
		c, _ := decodeChainCase(chainSeed(int64(h), byte(h), 4000))
		checkChain(t, c)
	}
}

// FuzzAccessChain holds the ladder kernel to AccessBanked on each rung
// alone. The committed corpus reaches a stop at rung 0 (a repeated
// load, then a repeated store) and at rung 1 (two lines that share a
// rung-0 set but not a rung-1 set, revisited).
func FuzzAccessChain(f *testing.F) {
	f.Add(chainSeed(1, 0x00, 300)) // 1 bank, direct-mapped
	f.Add(chainSeed(2, 0x05, 300)) // 2 banks, 2 ways
	f.Add(chainSeed(3, 0x0e, 300)) // 4 banks, 8 ways
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*4096 {
			data = data[:1+3*4096]
		}
		if c, ok := decodeChainCase(data); ok {
			checkChain(t, c)
		}
	})
}
