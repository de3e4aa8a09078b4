// Metamorphic invariants: properties the simulator must satisfy
// regardless of what the numbers are.
//
// A differential oracle catches a wrong miss count only where the
// oracle runs. Metamorphic relations catch a whole class of wrongness
// everywhere: if misses ever increase when capacity grows at a fixed
// set count, or a banked pipeline disagrees with its monolithic
// equivalent, or the telemetry counters fail to add up to the run
// totals, something is broken no matter which side is "right".

package verify

import (
	"fmt"

	"cmpmem/internal/cache"
)

// MissPoint is one point of a capacity sweep.
type MissPoint struct {
	Label    string // human-readable capacity ("8MB", "assoc 4", ...)
	Capacity uint64 // bytes (or any monotone stand-in); informational
	Misses   uint64
}

// MonotoneMisses checks LRU inclusion across a sweep ordered by
// increasing capacity: the miss count must never increase. For true-LRU
// caches growing associativity at a fixed set count this is Mattson's
// theorem; for the paper's size sweeps (fixed associativity, growing
// set count) it is the sanity floor every one of Figures 4-6 rests on.
func MonotoneMisses(points []MissPoint) error {
	for i := 1; i < len(points); i++ {
		if points[i].Misses > points[i-1].Misses {
			return fmt.Errorf("verify: misses increased with capacity: %s had %d misses, larger %s has %d",
				points[i-1].Label, points[i-1].Misses, points[i].Label, points[i].Misses)
		}
	}
	return nil
}

// DiffStats compares the miss-relevant counters of two cache stats and
// returns a field-by-field description of every mismatch (nil when
// equal). Writebacks and traffic are included: the bank interleave and
// delivery order must not change what the memory system sees either.
func DiffStats(what string, a, b cache.Stats) error {
	var diffs []string
	add := func(field string, x, y uint64) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", field, x, y))
		}
	}
	add("accesses", a.Accesses, b.Accesses)
	add("misses", a.Misses, b.Misses)
	add("loads", a.Loads, b.Loads)
	add("stores", a.Stores, b.Stores)
	add("load-misses", a.LoadMisses, b.LoadMisses)
	add("writebacks", a.Writebacks, b.Writebacks)
	add("evictions", a.Evictions, b.Evictions)
	add("sector-fetches", a.SectorFetches, b.SectorFetches)
	add("traffic-bytes", a.TrafficBytes, b.TrafficBytes)
	for c := range a.PerCoreAccesses {
		add(fmt.Sprintf("core%d-accesses", c), a.PerCoreAccesses[c], b.PerCoreAccesses[c])
		add(fmt.Sprintf("core%d-misses", c), a.PerCoreMisses[c], b.PerCoreMisses[c])
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("verify: %s stats diverge: %v", what, diffs)
}

// BankPartition checks that per-bank stats are an exact partition of
// the aggregate: every counter summed over banks equals the total. A
// reference lost between the AF and a CC bank shows up here.
func BankPartition(total cache.Stats, banks []cache.Stats) error {
	var sum cache.Stats
	for i := range banks {
		sum.Add(&banks[i])
	}
	return DiffStats("bank partition", total, sum)
}

// DiffSnapshots compares full replacement state dumped by
// cache.Cache.Snapshot / RefCache.Snapshot: same set count, and every
// set holding identical tags in identical recency order.
func DiffSnapshots(a, b [][]uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("verify: snapshot set counts diverge: %d != %d", len(a), len(b))
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return fmt.Errorf("verify: set %d occupancy diverges: %d != %d lines", s, len(a[s]), len(b[s]))
		}
		for w := range a[s] {
			if a[s][w] != b[s][w] {
				return fmt.Errorf("verify: set %d way %d diverges: tag %#x != %#x", s, w, a[s][w], b[s][w])
			}
		}
	}
	return nil
}

// Conserve checks one conservation identity: a derived total must equal
// its ground truth exactly.
func Conserve(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("verify: %s not conserved: got %d, want %d", what, got, want)
	}
	return nil
}
