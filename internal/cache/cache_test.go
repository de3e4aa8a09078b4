package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cmpmem/internal/mem"
)

func cfg(size, line uint64, assoc int) Config {
	return Config{Name: "t", Size: size, LineSize: line, Assoc: assoc}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		c  Config
		ok bool
	}{
		{cfg(1<<20, 64, 16), true},
		{cfg(1<<20, 64, 0), true},   // fully associative
		{cfg(0, 64, 4), false},      // zero size
		{cfg(1<<20, 48, 4), false},  // non-power-of-two line
		{cfg(1<<20, 0, 4), false},   // zero line
		{cfg(100, 64, 4), false},    // size not multiple of line
		{cfg(1<<10, 64, 32), false}, // assoc > lines
		{cfg(3<<10, 64, 16), false}, // non-pow2 sets
		{cfg(64, 64, 1), true},      // single line
	}
	for i, tc := range cases {
		err := tc.c.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("case %d (%+v): err=%v, want ok=%v", i, tc.c, err, tc.ok)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(cfg(100, 64, 4)); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c, err := New(cfg(1<<12, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Access(0x1000, 8, mem.Load, 0); got != 1 {
		t.Errorf("first access misses = %d, want 1", got)
	}
	if got := c.Access(0x1000, 8, mem.Load, 0); got != 0 {
		t.Errorf("second access misses = %d, want 0", got)
	}
	if got := c.Access(0x1038, 8, mem.Load, 0); got != 0 {
		t.Errorf("same-line access misses = %d, want 0", got)
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats: %d accesses %d misses, want 3/1", s.Accesses, s.Misses)
	}
}

func TestStraddlingAccess(t *testing.T) {
	c, _ := New(cfg(1<<12, 64, 4))
	// 8 bytes starting at line_end-4 touches two lines.
	misses := c.Access(0x103C, 8, mem.Load, 0)
	if misses != 2 {
		t.Errorf("straddling access missed %d lines, want 2", misses)
	}
	if c.Stats().Accesses != 2 {
		t.Errorf("straddle counts %d accesses, want 2", c.Stats().Accesses)
	}
}

func TestLRUOrder(t *testing.T) {
	// 2-way cache, one set: lines A,B,C map to set 0.
	c, _ := New(cfg(128, 64, 2))
	A, B, C := mem.Addr(0), mem.Addr(128), mem.Addr(256)
	c.Access(A, 8, mem.Load, 0)
	c.Access(B, 8, mem.Load, 0)
	c.Access(A, 8, mem.Load, 0) // A is MRU
	c.Access(C, 8, mem.Load, 0) // evicts B (LRU)
	if !c.Contains(A) {
		t.Error("A should be resident")
	}
	if c.Contains(B) {
		t.Error("B should have been evicted (LRU)")
	}
	if !c.Contains(C) {
		t.Error("C should be resident")
	}
}

func TestWritebackAccounting(t *testing.T) {
	c, _ := New(cfg(128, 64, 1)) // direct-mapped, 2 sets
	c.Access(0, 8, mem.Store, 0)
	c.Access(128, 8, mem.Load, 0) // evicts dirty line 0
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	c.Access(256, 8, mem.Load, 0) // evicts clean line 128
	if c.Stats().Writebacks != 1 {
		t.Errorf("clean eviction must not write back")
	}
}

func TestDirtyBitSurvivesHits(t *testing.T) {
	c, _ := New(cfg(128, 64, 2))
	c.Access(0, 8, mem.Store, 0)
	c.Access(0, 8, mem.Load, 0) // hit must not clear dirty
	c.Access(128, 8, mem.Load, 0)
	c.Access(256, 8, mem.Load, 0) // evicts line 0 (LRU)
	if c.Stats().Writebacks != 1 {
		t.Error("dirty bit lost across a hit")
	}
}

func TestPerCoreStats(t *testing.T) {
	c, _ := New(cfg(1<<12, 64, 4))
	c.Access(0, 8, mem.Load, 3)
	c.Access(0, 8, mem.Load, 7)
	s := c.Stats()
	if s.PerCoreAccesses[3] != 1 || s.PerCoreAccesses[7] != 1 {
		t.Error("per-core access attribution wrong")
	}
	if s.PerCoreMisses[3] != 1 || s.PerCoreMisses[7] != 0 {
		t.Error("per-core miss attribution wrong")
	}
}

func TestFill(t *testing.T) {
	c, _ := New(cfg(1<<12, 64, 4))
	if !c.Fill(0x80, 0) {
		t.Error("Fill of absent line should insert")
	}
	if c.Fill(0x80, 0) {
		t.Error("Fill of resident line should report false")
	}
	if got := c.Access(0x80, 8, mem.Load, 0); got != 0 {
		t.Error("demand access after Fill should hit")
	}
	if c.Stats().Accesses != 1 {
		t.Error("Fill must not count as a demand access")
	}
}

// TestInclusionProperty: for fully-associative LRU, a larger cache's
// resident set always contains a smaller cache's (the stack property),
// hence misses(small) >= misses(large) for every trace prefix.
func TestInclusionProperty(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		small, _ := New(cfg(4*64, 64, 0))
		large, _ := New(cfg(16*64, 64, 0))
		for i := 0; i < int(n)+50; i++ {
			addr := mem.Addr(rng.Intn(64) * 64)
			kind := mem.Kind(rng.Intn(2))
			small.Access(addr, 8, kind, 0)
			large.Access(addr, 8, kind, 0)
			if small.Stats().Misses < large.Stats().Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAssocMonotonicity: with fixed size, higher associativity never
// increases misses for an LRU cache on these simple strided patterns
// (not true for arbitrary traces, so we use linear scans).
func TestAssocMonotonicityOnScans(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		c1, _ := New(cfg(1<<12, 64, assoc))
		c2, _ := New(cfg(1<<12, 64, assoc*2))
		for rep := 0; rep < 3; rep++ {
			for a := 0; a < 1<<13; a += 64 {
				c1.Access(mem.Addr(a), 8, mem.Load, 0)
				c2.Access(mem.Addr(a), 8, mem.Load, 0)
			}
		}
		if c2.Stats().Misses > c1.Stats().Misses {
			t.Errorf("assoc %d->%d increased misses on scan: %d -> %d",
				assoc, assoc*2, c1.Stats().Misses, c2.Stats().Misses)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 200, Misses: 50}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
	if got := s.MPKI(10000); got != 5 {
		t.Errorf("MPKI = %v, want 5", got)
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats should yield zero rates")
	}
}

func TestResidentLinesBounded(t *testing.T) {
	c, _ := New(cfg(1<<10, 64, 4)) // 16 lines
	for a := 0; a < 1<<16; a += 64 {
		c.Access(mem.Addr(a), 8, mem.Load, 0)
	}
	if got := c.ResidentLines(); got != 16 {
		t.Errorf("resident lines = %d, want 16 (full)", got)
	}
}

func TestFullyAssociativeEviction(t *testing.T) {
	c, _ := New(cfg(4*64, 64, 0)) // 4 lines, fully associative
	for i := 0; i < 4; i++ {
		c.Access(mem.Addr(i*64), 8, mem.Load, 0)
	}
	c.Access(0, 8, mem.Load, 0)              // refresh line 0
	c.Access(mem.Addr(4*64), 8, mem.Load, 0) // evicts line 1 (LRU)
	if !c.Contains(0) {
		t.Error("MRU-refreshed line evicted")
	}
	if c.Contains(64) {
		t.Error("LRU line not evicted")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c, _ := New(cfg(1<<20, 64, 16))
	c.Access(0x40, 8, mem.Load, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x40, 8, mem.Load, 0)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c, _ := New(cfg(1<<20, 64, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(i*64), 8, mem.Load, 0)
	}
}

func TestZeroSizeAccess(t *testing.T) {
	// A zero-size reference must behave like a one-byte probe, not
	// underflow addr+size-1 and skip (or, at address 0, sweep the whole
	// address space).
	c, _ := New(cfg(1<<12, 64, 4))
	if got := c.Access(0x2000, 0, mem.Load, 0); got != 1 {
		t.Errorf("zero-size first access misses = %d, want 1", got)
	}
	if got := c.Access(0x2000, 0, mem.Load, 0); got != 0 {
		t.Errorf("zero-size second access misses = %d, want 0", got)
	}
	if s := c.Stats(); s.Accesses != 2 || s.Misses != 1 {
		t.Errorf("stats after zero-size accesses: %+v, want 2 accesses / 1 miss", s)
	}
	// The historically catastrophic case: address 0, size 0.
	done := make(chan int, 1)
	go func() { done <- c.Access(0, 0, mem.Store, 1) }()
	select {
	case got := <-done:
		if got != 1 {
			t.Errorf("Access(0, 0) misses = %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Access(0, 0) did not return (address-space sweep)")
	}
}

func TestLineSizeOneRejected(t *testing.T) {
	// LineSize 1 would let block numbers reach the invalid-tag sentinel.
	if err := cfg(64, 1, 4).Validate(); err == nil {
		t.Error("LineSize 1 accepted")
	}
}

func TestBlockZeroNotSpuriouslyResident(t *testing.T) {
	// Empty ways must not report residency for block number 0 — a
	// zero-value tag would. Guards the invalid-tag sentinel.
	c, _ := New(cfg(1<<12, 64, 4))
	if c.Contains(0) {
		t.Fatal("empty cache claims to contain address 0")
	}
	if got := c.Access(0, 8, mem.Load, 0); got != 1 {
		t.Errorf("first access to address 0 misses = %d, want 1", got)
	}
	if !c.Contains(0) {
		t.Error("address 0 not resident after access")
	}
}
