package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/verify"
)

// TestSerialParallelEquivalence is the concurrency pipeline's ground
// truth: the same workload + seed swept on one processor (every batch
// consumed on the producer's goroutine) and on four (the bus fans the
// batches out over workers) must produce bit-identical cache.Stats, CB
// Samples, and MPKI for every config. Per-snooper total order is
// preserved by construction (a snooper's lane is served by one worker
// at a time, in publish order), so any divergence here is a real
// pipeline bug, not nondeterminism.
func TestSerialParallelEquivalence(t *testing.T) {
	platforms := []struct {
		name string
		pc   PlatformConfig
	}{
		{"SCMP", SCMP()},
		{"MCMP", MCMP()},
	}
	for _, wl := range []string{"FIMI", "SNP"} {
		for _, plat := range platforms {
			wl, plat := wl, plat
			t.Run(wl+"/"+plat.name, func(t *testing.T) {
				pc := plat.pc
				pc.Seed = 7
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				serial, ssum, err := LLCSweep(wl, tinyParams(), pc, tinyLLCs())
				if err != nil {
					t.Fatal(err)
				}
				// A small batch forces many publishes (partial final
				// batch included) — the hardest case for ordering.
				runtime.GOMAXPROCS(4)
				batched, bsum, err := LLCSweep(wl, tinyParams(), pc, tinyLLCs(), WithBusBatch(64))
				if err != nil {
					t.Fatal(err)
				}
				if ssum != bsum {
					t.Errorf("run summaries diverge:\nserial  %+v\nbatched %+v", ssum, bsum)
				}
				if len(serial) != len(batched) {
					t.Fatalf("result counts diverge: %d vs %d", len(serial), len(batched))
				}
				for i := range serial {
					s, b := serial[i], batched[i]
					if err := verify.DiffStats("serial vs batched", s.Stats, b.Stats); err != nil {
						t.Errorf("%s: %v", s.LLC.Name, err)
					}
					if s.MPKI != b.MPKI {
						t.Errorf("%s: MPKI diverges: %v vs %v", s.LLC.Name, s.MPKI, b.MPKI)
					}
					if s.Instructions != b.Instructions || s.Ignored != b.Ignored {
						t.Errorf("%s: counters diverge: inst %d/%d ignored %d/%d",
							s.LLC.Name, s.Instructions, b.Instructions, s.Ignored, b.Ignored)
					}
					if !reflect.DeepEqual(s.Samples, b.Samples) {
						t.Errorf("%s: CB samples diverge (%d vs %d samples)",
							s.LLC.Name, len(s.Samples), len(b.Samples))
					}
				}
			})
		}
	}
}

// TestCacheSweepParallelEquivalence: the exhibit orchestrator must give
// identical series serial vs on the worker pool with batched buses.
func TestCacheSweepParallelEquivalence(t *testing.T) {
	p := tinyParams()
	serial, err := CacheSweep(nil, p, 4, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CacheSweep(nil, p, 4, WithParallelism(4), WithBusBatch(256))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("cache sweep series diverge between serial and parallel orchestration:\nserial  %+v\nparallel %+v",
			serial, parallel)
	}
}

// TestBankShrinkTooSmall: a cache too small to hold one set per line
// must be rejected with a clear error, not a bank-count underflow.
func TestBankShrinkTooSmall(t *testing.T) {
	// 512 B cache, 64 B lines => 8 lines; assoc 16 > lines => 0 sets.
	bad := []cache.Config{{Name: "LLC-tiny", Size: 512, LineSize: 64, Assoc: 16}}
	_, _, err := LLCSweep("PLSA", tinyParams(), PlatformConfig{Threads: 1}, bad)
	if err == nil {
		t.Fatal("zero-set cache accepted")
	}
	if !strings.Contains(err.Error(), "too small for line size") {
		t.Errorf("unclear error for zero-set cache: %v", err)
	}
}

// TestBankShrinkClampsToOne: a one-set cache runs on a single bank
// instead of failing or underflowing to zero banks.
func TestBankShrinkClampsToOne(t *testing.T) {
	one := cache.Config{Name: "LLC-1set", Size: 1 << 10, LineSize: 64, Assoc: 16}
	cfg, err := bankedConfig(one)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Banks != 1 {
		t.Fatalf("banks = %d, want 1", cfg.Banks)
	}
	results, _, err := LLCSweep("PLSA", tinyParams(), PlatformConfig{Threads: 1}, []cache.Config{one})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Stats.Accesses == 0 {
		t.Error("one-set LLC saw no accesses")
	}
}
