package datasets

import (
	"math"
	"math/bits"
)

// Transaction databases for frequent-itemset mining (FIMI). The
// generator mimics the Kosarak click-stream's shape: heavy-tailed item
// popularity and short, bursty transactions, with planted frequent
// patterns so FP-growth has real structure to mine.

// Transactions is a transaction database.
type Transactions struct {
	// Items holds all transactions back to back.
	Items []int32
	// Offsets[i] is the start of transaction i in Items;
	// Offsets[len(Offsets)-1] == len(Items).
	Offsets []int32
	// NumItems is the size of the item vocabulary.
	NumItems int
}

// Count returns the number of transactions.
func (t *Transactions) Count() int { return len(t.Offsets) - 1 }

// Get returns transaction i as a sub-slice of Items.
func (t *Transactions) Get(i int) []int32 {
	return t.Items[t.Offsets[i]:t.Offsets[i+1]]
}

// GenTransactions builds a database of n transactions over a vocabulary
// of numItems, with mean transaction length meanLen. A small set of
// pattern itemsets is planted into a fraction of transactions so that
// frequent itemsets exist at realistic supports.
func GenTransactions(seed int64, n, numItems, meanLen int) *Transactions {
	r := Rng(seed)
	zipf := randZipf(seed^0x7a11, numItems)

	// Plant patterns: a handful of itemsets of size 2..5.
	type pattern struct {
		items []int32
		prob  float64
	}
	numPatterns := 8
	patterns := make([]pattern, numPatterns)
	for i := range patterns {
		size := 2 + r.Intn(4)
		items := make([]int32, size)
		for j := range items {
			items[j] = int32(zipf())
		}
		patterns[i] = pattern{items: items, prob: 0.02 + float64(r.Float64()*0.05)}
	}

	t := &Transactions{
		Items:    make([]int32, 0, n*meanLen),
		Offsets:  make([]int32, 1, n+1),
		NumItems: numItems,
	}
	seen := make(map[int32]bool, 64)
	for i := 0; i < n; i++ {
		clear(seen)
		// Geometric-ish transaction length around meanLen.
		length := 1 + r.Intn(2*meanLen-1)
		for _, p := range patterns {
			if r.Float64() < p.prob {
				for _, it := range p.items {
					if !seen[it] {
						seen[it] = true
						t.Items = append(t.Items, it)
					}
				}
			}
		}
		for j := 0; j < length; j++ {
			it := int32(zipf())
			if !seen[it] {
				seen[it] = true
				t.Items = append(t.Items, it)
			}
		}
		t.Offsets = append(t.Offsets, int32(len(t.Items)))
	}
	return t
}

// randZipf returns a sampler over [0, n) drawing from a discrete power
// law p(k) ∝ 1/(k+2)^1.2 via inverse-CDF, matching click-stream skew.
// A guide table narrows each binary search to one of g equal slices of
// [0, 1): guide[b] is the answer for u = b/g, and the answer is
// monotone in u. g is a power of two, so u*g and b/g are exact.
func randZipf(seed int64, n int) func() int {
	r := Rng(seed)
	cum := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += 1.0 / math.Pow(float64(k)+2, 1.2)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	g := 1 << bits.Len(uint(n))
	guide := make([]int32, g+1)
	for b, k := 0, 0; b <= g; b++ {
		for k < n-1 && cum[k] < float64(b)/float64(g) {
			k++
		}
		guide[b] = int32(k)
	}
	return func() int {
		u := r.Float64()
		b := int(u * float64(g))
		lo, hi := int(guide[b]), int(guide[b+1])
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
}
