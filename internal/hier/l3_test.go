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
	if _, _, err := New(cfg); err == nil {
		t.Error("invalid L3 accepted")
	}
}
