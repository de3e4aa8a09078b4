package core

import (
	"fmt"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
)

// liveLadder is bench's live-sweep grid: 64 KB to 8 MB in powers of
// two, 64 B lines, LLCAssoc ways — one chain of eight emulators.
func liveLadder() []cache.Config {
	var out []cache.Config
	for sz := uint64(64 << 10); sz <= 8<<20; sz *= 2 {
		out = append(out, cache.Config{Name: fmt.Sprintf("LLC-%dKB", sz>>10), Size: sz, LineSize: 64, Assoc: LLCAssoc})
	}
	return out
}

// requireChainedMatchAlone runs cfgs through one LLCSweep and each
// config through an LLCSweep of its own, which never chains, and
// requires every result to match, CB samples included.
func requireChainedMatchAlone(t *testing.T, name string, cfgs []cache.Config) {
	t.Helper()
	pc := PlatformConfig{Threads: 4, Seed: 5}
	all, _, err := LLCSweep(name, tinyParams(), pc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		one, _, err := LLCSweep(name, tinyParams(), pc, cfgs[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		requireLLCResultsEqual(t, name+"/"+cfg.Name, all[i:i+1], one)
	}
}

// TestChainedLadderMatchesAlone: the live-sweep ladder, one chain, reads
// exactly as its eight emulators run one at a time.
func TestChainedLadderMatchesAlone(t *testing.T) {
	for _, name := range []string{"FIMI", "MDS"} {
		requireChainedMatchAlone(t, name, liveLadder())
	}
}

// TestFullyAssociativePairStaysUnchained: 4 KB and 8 KB fully
// associative LLCs share line size, Assoc 0 and (one) bank, the key a
// naive grouping would chain on, but the 8 KB one has 128 ways and no
// MRU hint. Both run alone, and read as they do alone.
func TestFullyAssociativePairStaysUnchained(t *testing.T) {
	cfgs := []cache.Config{
		{Name: "FA-4KB", Size: 4 << 10, LineSize: 64},
		{Name: "FA-8KB", Size: 8 << 10, LineSize: 64},
	}
	var emus []*dragonhead.Emulator
	for _, cfg := range cfgs {
		dcfg, err := bankedConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := dragonhead.New(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		emus = append(emus, e)
	}
	answerers, chains, err := chainEmulators(emus)
	if err != nil || chains != 0 || len(answerers) != 2 {
		t.Fatalf("chainEmulators: %d answerers, %d chains, %v; want 2 emulators alone", len(answerers), chains, err)
	}
	requireChainedMatchAlone(t, "SHOT", cfgs)
}
