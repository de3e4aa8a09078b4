package cache

import (
	"math/rand"
	"testing"

	"cmpmem/internal/mem"
)

func policyCfg(p Policy) Config {
	return Config{Name: "p", Size: 4 * 64, LineSize: 64, Assoc: 0, Repl: p}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy must still render")
	}
}

func TestValidateRejectsUnknownPolicy(t *testing.T) {
	cfg := policyCfg(Policy(7))
	if err := cfg.Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestFIFOIgnoresHits: the classic FIFO-vs-LRU discriminator. Fill a
// 4-line cache with A B C D, re-touch A (hit), then add E. LRU evicts
// B (A was refreshed); FIFO evicts A (oldest fill).
func TestFIFOIgnoresHits(t *testing.T) {
	A, B := mem.Addr(0), mem.Addr(64)
	addrs := []mem.Addr{0, 64, 128, 192}

	lru, _ := New(policyCfg(LRU))
	fifo, _ := New(policyCfg(FIFO))
	for _, c := range []*Cache{lru, fifo} {
		for _, a := range addrs {
			c.Access(a, 8, mem.Load, 0)
		}
		c.Access(A, 8, mem.Load, 0)   // hit: refresh under LRU only
		c.Access(256, 8, mem.Load, 0) // force one eviction
	}
	if !resident(lru, A) || resident(lru, B) {
		t.Error("LRU should keep refreshed A and evict B")
	}
	if resident(fifo, A) || !resident(fifo, B) {
		t.Error("FIFO should evict oldest-filled A and keep B")
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	run := func() uint64 {
		c, _ := New(Config{Name: "r", Size: 1 << 12, LineSize: 64, Assoc: 4, Repl: Random})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20000; i++ {
			c.Access(mem.Addr(rng.Intn(1<<16))&^63, 8, mem.Load, 0)
		}
		return c.Stats().Misses
	}
	if run() != run() {
		t.Error("Random policy not deterministic across identical runs")
	}
}

// TestLRUBeatsRandomOnReuse: on a looping working set slightly larger
// than the cache, LRU and FIFO thrash (cyclic worst case) while Random
// retains a fraction — the classic result.
func TestRandomBeatsLRUOnCyclicThrash(t *testing.T) {
	mk := func(p Policy) *Cache {
		c, _ := New(Config{Name: "x", Size: 64 * 64, LineSize: 64, Assoc: 0, Repl: p})
		return c
	}
	lru, fifo, rnd := mk(LRU), mk(FIFO), mk(Random)
	// 80-line loop over a 64-line cache, many passes.
	for pass := 0; pass < 30; pass++ {
		for i := 0; i < 80; i++ {
			a := mem.Addr(i * 64)
			lru.Access(a, 8, mem.Load, 0)
			fifo.Access(a, 8, mem.Load, 0)
			rnd.Access(a, 8, mem.Load, 0)
		}
	}
	if lru.Stats().Misses != lru.Stats().Accesses {
		t.Errorf("LRU should miss every access on a cyclic over-capacity loop: %d/%d",
			lru.Stats().Misses, lru.Stats().Accesses)
	}
	if fifo.Stats().Misses != fifo.Stats().Accesses {
		t.Error("FIFO should thrash like LRU on a cyclic loop")
	}
	if rnd.Stats().Misses >= lru.Stats().Misses {
		t.Errorf("Random (%d misses) should beat LRU (%d) on cyclic thrash",
			rnd.Stats().Misses, lru.Stats().Misses)
	}
}

// TestPoliciesShareAccounting: hit/miss bookkeeping fields stay
// consistent across policies.
func TestPoliciesShareAccounting(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, Random} {
		c, _ := New(Config{Name: "a", Size: 1 << 10, LineSize: 64, Assoc: 4, Repl: p})
		for i := 0; i < 1000; i++ {
			c.Access(mem.Addr((i*37)%2048)&^7, 8, mem.Kind(i%2), 0)
		}
		s := c.Stats()
		if s.Loads+s.Stores != s.Accesses {
			t.Errorf("%v: loads+stores != accesses", p)
		}
		if s.Misses > s.Accesses {
			t.Errorf("%v: more misses than accesses", p)
		}
		if s.Writebacks > s.Evictions {
			t.Errorf("%v: more writebacks than evictions", p)
		}
		if got := residentLines(c); got > 16 {
			t.Errorf("%v: %d resident lines in a 16-line cache", p, got)
		}
	}
}

// TestFIFODirtyUpdateInPlace: a store hit must mark the line dirty even
// though FIFO does not reorder.
func TestFIFODirtyUpdateInPlace(t *testing.T) {
	c, _ := New(policyCfg(FIFO))
	c.Access(0, 8, mem.Load, 0)
	c.Access(0, 8, mem.Store, 0) // hit: set dirty in place
	for a := 64; a <= 4*64; a += 64 {
		c.Access(mem.Addr(a), 8, mem.Load, 0)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("dirty bit lost on FIFO hit: %d writebacks", c.Stats().Writebacks)
	}
}
