package fimi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"cmpmem/internal/datasets"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

func run(t *testing.T, threads int, scale float64, seed int64) *Workload {
	t.Helper()
	w := New(workloads.Params{Seed: seed, Scale: scale})
	bus := fsb.NewBus()
	sched, err := softsdv.NewScheduler(softsdv.Config{Cores: threads, Quantum: 20000}, bus)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build(mem.NewSpace(), sched, threads)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(prog); err != nil {
		t.Fatal(err)
	}
	return w
}

// key canonicalizes an itemset for set comparison.
func key(items []int32) string {
	s := append([]int32(nil), items...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return fmt.Sprint(s)
}

// bruteForce counts every itemset of size <= maxPatternLen appearing in
// the database and returns those meeting minsup.
func bruteForce(w *Workload) map[string]int32 {
	db := w.DB()
	// First pass: item counts (to prune enumeration like FP-growth's
	// frequent-item filter).
	counts := map[int32]int32{}
	for i := 0; i < db.Count(); i++ {
		for _, it := range db.Get(i) {
			counts[it]++
		}
	}
	frequent := map[int32]bool{}
	for it, c := range counts {
		if c >= w.MinSupport() {
			frequent[it] = true
		}
	}
	sup := map[string]int32{}
	var rec func(items []int32, start int, tx []int32)
	for i := 0; i < db.Count(); i++ {
		raw := db.Get(i)
		tx := make([]int32, 0, len(raw))
		for _, it := range raw {
			if frequent[it] {
				tx = append(tx, it)
			}
		}
		sort.Slice(tx, func(a, b int) bool { return tx[a] < tx[b] })
		var items []int32
		rec = func(items []int32, start int, tx []int32) {
			if len(items) > 0 {
				sup[key(items)]++
			}
			if len(items) == maxPatternLen {
				return
			}
			for k := start; k < len(tx); k++ {
				rec(append(items, tx[k]), k+1, tx)
			}
		}
		rec(items, 0, tx)
	}
	out := map[string]int32{}
	for k, c := range sup {
		if c >= w.MinSupport() {
			out[k] = c
		}
	}
	return out
}

// TestMatchesBruteForce: FP-growth must find exactly the frequent
// itemsets (with exact supports) that exhaustive counting finds.
func TestMatchesBruteForce(t *testing.T) {
	w := run(t, 2, 1.0/512, 5)
	want := bruteForce(w)
	got := map[string]int32{}
	for _, is := range w.Frequent {
		got[key(is.Items)] = is.Support
	}
	if len(got) == 0 {
		t.Fatal("no frequent itemsets mined")
	}
	for k, sup := range want {
		if got[k] != sup {
			t.Errorf("itemset %s: fp-growth support %d, brute force %d", k, got[k], sup)
		}
	}
	for k, sup := range got {
		if want[k] != sup {
			t.Errorf("itemset %s: spurious or wrong support %d (want %d)", k, sup, want[k])
		}
	}
	t.Logf("matched %d frequent itemsets (minsup=%d)", len(want), w.MinSupport())
}

// TestThreadCountInvariance: the mined set is independent of the
// parallel decomposition.
func TestThreadCountInvariance(t *testing.T) {
	w1 := run(t, 1, 1.0/512, 9)
	w4 := run(t, 4, 1.0/512, 9)
	if len(w1.Frequent) != len(w4.Frequent) {
		t.Fatalf("itemset count differs: %d vs %d", len(w1.Frequent), len(w4.Frequent))
	}
	for i := range w1.Frequent {
		if key(w1.Frequent[i].Items) != key(w4.Frequent[i].Items) ||
			w1.Frequent[i].Support != w4.Frequent[i].Support {
			t.Fatalf("itemset %d differs across thread counts", i)
		}
	}
}

func TestSingleItemSupportsMatchCounts(t *testing.T) {
	w := run(t, 2, 1.0/512, 13)
	db := w.DB()
	counts := map[int32]int32{}
	for i := 0; i < db.Count(); i++ {
		for _, it := range db.Get(i) {
			counts[it]++
		}
	}
	for _, is := range w.Frequent {
		if len(is.Items) != 1 {
			continue
		}
		if counts[is.Items[0]] != is.Support {
			t.Errorf("item %d: mined support %d, true count %d",
				is.Items[0], is.Support, counts[is.Items[0]])
		}
	}
}

func TestMetadata(t *testing.T) {
	w := New(workloads.Params{Seed: 1})
	if w.Name() != "FIMI" {
		t.Errorf("name = %q", w.Name())
	}
	if w.Category() != workloads.MixedWS {
		t.Error("FIMI must be in the mixed-sharing category")
	}
	if w.MinSupport() < 2 {
		t.Error("support threshold collapsed")
	}
}

// TestTransactionsPinned holds the transaction database at seed 1 and
// scale 1/16 to the digest of the original Zipf sampler's output, so a
// faster sampler must draw the same items.
func TestTransactionsPinned(t *testing.T) {
	w := New(workloads.Params{Seed: 1, Scale: 1.0 / 16})
	db := datasets.GenTransactions(w.p.Seed, w.ntx, w.nitems, meanTxLen)
	for _, c := range []struct {
		name string
		v    []int32
		want string
	}{
		{"Items", db.Items, "62be81857ffb72d7f37565bddbcbad3fb159bcb9b81ef53bb198c8e23a347de5"},
		{"Offsets", db.Offsets, "75b6648a922302e8d02e6b92d27bd1cc5647b649eff1a6a63039df7e6920a2c4"},
	} {
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, c.v)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("%s digest %s, pinned %s", c.name, got, c.want)
		}
	}
}
