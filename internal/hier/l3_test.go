package hier

import (
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
)

func withL3(cores int, l3Size uint64) Config {
	cfg := Xeon16(cores, 1, nil)
	cfg.L3 = &cache.Config{Name: "L3", Size: l3Size, LineSize: 64, Assoc: 16}
	return cfg
}

func TestL3ServicesL2Misses(t *testing.T) {
	m, err := newOpen(withL3(1, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Stream 8 MB (beyond DL2) twice: second pass hits the L3.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 8<<20/64; i++ {
			m.OnRef(ref(0, 0x4000_0000+uint64(i)*64, mem.Load))
		}
	}
	l3 := m.L3Stats()
	if l3.Accesses == 0 {
		t.Fatal("L3 never accessed")
	}
	// Second pass should be nearly all L3 hits.
	if l3.Misses > l3.Accesses*6/10 {
		t.Errorf("L3 hit rate too low: %d misses / %d accesses", l3.Misses, l3.Accesses)
	}
}

func TestL3ReducesCycles(t *testing.T) {
	without, _ := newOpen(Xeon16(1, 1, nil))
	with, err := newOpen(withL3(1, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 4<<20/64; i++ {
			addr := 0x4000_0000 + uint64(i)*64
			without.OnRef(ref(0, addr, mem.Load))
			with.OnRef(ref(0, addr, mem.Load))
		}
	}
	without.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 200_000})
	with.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 200_000})
	if with.Cycles() >= without.Cycles() {
		t.Errorf("DRAM L3 did not help: %.0f vs %.0f cycles", with.Cycles(), without.Cycles())
	}
}

func TestL3StatsZeroWithoutL3(t *testing.T) {
	m, _ := newOpen(Xeon16(1, 1, nil))
	if m.L3Stats() != (cache.Stats{}) {
		t.Error("L3 stats should be zero without an L3")
	}
}

func TestL3ConfigValidated(t *testing.T) {
	cfg := withL3(1, 100) // invalid size
	if _, err := New(cfg); err == nil {
		t.Error("invalid L3 accepted")
	}
}

func coherentCfg(cores int) Config {
	cfg := Xeon16(cores, 1, nil)
	cfg.Coherent = true
	return cfg
}

func TestCoherenceInvalidatesRemoteCopies(t *testing.T) {
	m, err := newOpen(coherentCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x4000_0000)
	m.OnRef(ref(0, addr, mem.Load))  // core 0 caches the line
	m.OnRef(ref(1, addr, mem.Load))  // core 1 caches the line
	m.OnRef(ref(0, addr, mem.Store)) // core 0 writes: invalidate core 1
	if m.Invalidations() == 0 {
		t.Fatal("no invalidation recorded")
	}
	// Core 1 must now re-miss.
	before := m.L1Stats().Misses
	m.OnRef(ref(1, addr, mem.Load))
	if m.L1Stats().Misses != before+1 {
		t.Error("remote copy survived the store")
	}
}

func TestCoherencePingPongCostsCycles(t *testing.T) {
	coherent, _ := newOpen(coherentCfg(2))
	plain, _ := newOpen(Xeon16(2, 1, nil))
	for i := 0; i < 1000; i++ {
		core := uint8(i % 2)
		coherent.OnRef(ref(core, 0x4000_0000, mem.Store))
		plain.OnRef(ref(core, 0x4000_0000, mem.Store))
	}
	coherent.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 1000})
	plain.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 1000})
	if coherent.Cycles() <= plain.Cycles() {
		t.Errorf("write ping-pong free under coherence: %.0f vs %.0f",
			coherent.Cycles(), plain.Cycles())
	}
	if coherent.Invalidations() < 400 {
		t.Errorf("only %d invalidations for 1000 alternating stores", coherent.Invalidations())
	}
}

func TestCoherencePrivateDataUnaffected(t *testing.T) {
	coherent, _ := newOpen(coherentCfg(2))
	plain, _ := newOpen(Xeon16(2, 1, nil))
	// Disjoint per-core streams: coherence must not change anything.
	for i := 0; i < 5000; i++ {
		for core := uint8(0); core < 2; core++ {
			addr := 0x4000_0000 + uint64(core)<<28 + uint64(i%512)*64
			coherent.OnRef(ref(core, addr, mem.Store))
			plain.OnRef(ref(core, addr, mem.Store))
		}
	}
	if coherent.Invalidations() != 0 {
		t.Errorf("%d invalidations on disjoint data", coherent.Invalidations())
	}
	if coherent.L1Stats().Misses != plain.L1Stats().Misses {
		t.Error("coherence changed miss counts of private streams")
	}
}

func TestSharerMask(t *testing.T) {
	var s sharerMask
	s.set(5)
	s.set(97)
	if s.empty() {
		t.Fatal("mask with sharers reports empty")
	}
	others := s.othersThan(5)
	if others[0] != 0 || others[1] == 0 {
		t.Errorf("othersThan(5) wrong: %v", others)
	}
	if !s.othersThan(5).othersThan(97).empty() {
		t.Error("removing both sharers should empty the mask")
	}
	s.clearAll(3)
	if s.othersThan(3) != (sharerMask{}) {
		t.Error("clearAll should leave only the writer")
	}
}
