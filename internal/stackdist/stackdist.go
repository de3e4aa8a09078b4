// Package stackdist implements single-pass Mattson stack-distance (LRU
// reuse-distance) analysis. One pass over a trace yields the miss count
// of a fully-associative LRU cache of *every* capacity simultaneously,
// which makes cache-size sweeps (Figures 4-6 of the paper) cheap and
// provides an independent oracle for property-testing the direct cache
// simulator: a fully-associative cache of N lines must miss exactly
// hist[>=N] + cold times.
//
// Algorithm: Bentley/Olken counting over recency slots. Every distinct
// line owns exactly one slot, handed out in access order, so the LRU
// stack depth of a re-referenced line is the number of occupied slots
// above its own. Three structures carry that:
//
//   - One open-addressed line table (linear probing, Fibonacci hash)
//     maps a line to its slot plus one uint32 of caller state (the tag
//     of RecordTagged). Lines are never deleted, so there are no
//     tombstones and a probe is one cache line in the common case.
//   - Slot occupancy is a bitset, one bit per slot.
//   - A Fenwick tree over the popcounts of the bitset's 64-slot words —
//     64x fewer nodes than a tree over slots, so it stays cache-resident.
//     The occupied total is the distinct-line count, so a depth costs
//     one prefix sum plus one masked popcount, and a move that lands in
//     the word it left touches no tree node.
//
// A re-reference to the most recent line (the common case in a bus
// stream) is answered before the table probe. When the slots run out
// the occupied ones are renumbered by rank (a prefix popcount per table
// entry, no sort) into a bitset of twice the distinct lines, so memory
// stays proportional to the footprint, not the trace length, and the
// buffers are reused once the footprint stops growing.
package stackdist

import (
	"math"
	"math/bits"

	"cmpmem/internal/mem"
)

// Infinite is the distance reported for a cold (first-ever) reference.
const Infinite = math.MaxUint32

// lineEntry is one line-table cell. pos is the line's slot plus one; a
// zero pos marks the cell empty, so line 0 needs no reserved key.
type lineEntry struct {
	line uint64
	pos  uint32
	tag  uint32
}

// minTable is the initial line-table size (a power of two): small,
// because the oracle's deep families create one Analyzer per touched
// set.
const minTable = 8

// Analyzer accumulates reuse distances, line-granular.
type Analyzer struct {
	lineShift uint

	table     []lineEntry // open-addressed, power-of-two length, load <= 3/4
	hashShift uint        // 64 - log2(len(table))
	live      uint32      // distinct lines = occupied slots = table entries

	words []uint64 // slot occupancy, slot s is bit s&63 of words[s>>6]
	tree  []uint32 // Fenwick tree over popcount(words[i]), 1-based
	next  uint32   // next slot to hand out; len(words)*64 means full

	mruLine uint64 // line of the latest reference (valid once live > 0)
	mruIdx  int    // its table index

	// hist[d] counts references with stack distance exactly d, for
	// d < len(hist); deeper ones fall into overflow.
	hist     []uint64
	overflow uint64
	cold     uint64
	total    uint64
}

// New returns an Analyzer for the given line size (power of two) that
// keeps an exact histogram up to maxLines distinct lines of depth.
func New(lineSize uint64, maxLines int) *Analyzer {
	a := &Analyzer{
		table:     make([]lineEntry, minTable),
		hashShift: uint(64 - bits.TrailingZeros(minTable)),
		words:     make([]uint64, 1),
		tree:      make([]uint32, 2),
		hist:      make([]uint64, maxLines),
	}
	for s := lineSize; s > 1; s >>= 1 {
		a.lineShift++
	}
	return a
}

// treeAdd adds delta to the count of word w (0-based).
func (a *Analyzer) treeAdd(w uint32, delta uint32) {
	for i := w + 1; int(i) < len(a.tree); i += i & -i {
		a.tree[i] += delta
	}
}

// above returns the number of occupied slots above slot s — the LRU
// stack depth of the line that owns s.
func (a *Analyzer) above(s uint32) uint32 {
	w := s >> 6
	atOrBelow := uint32(bits.OnesCount64(a.words[w] << (63 - s&63)))
	for i := w; i > 0; i -= i & -i {
		atOrBelow += a.tree[i]
	}
	return a.live - atOrBelow
}

// find returns the table index of ln, or of the empty cell where it
// belongs.
func (a *Analyzer) find(ln uint64) int {
	mask := len(a.table) - 1
	i := int((ln * 0x9E3779B97F4A7C15) >> a.hashShift)
	for a.table[i].pos != 0 && a.table[i].line != ln {
		i = (i + 1) & mask
	}
	return i
}

// growTable doubles the line table and rehashes every entry.
func (a *Analyzer) growTable() {
	old := a.table
	a.table = make([]lineEntry, 2*len(old))
	a.hashShift--
	for _, e := range old {
		if e.pos != 0 {
			a.table[a.find(e.line)] = e
		}
	}
}

// compact renumbers the occupied slots 0..live-1 in order and leaves
// room for as many again. A line's new slot is the rank of its old one
// among the occupied slots, read off per-word prefix counts — which
// live in the tree's own array until the tree is rebuilt, so a
// compaction at a settled footprint allocates nothing.
func (a *Analyzer) compact() {
	var run uint32
	for w, word := range a.words {
		a.tree[w] = run
		run += uint32(bits.OnesCount64(word))
	}
	for i := range a.table {
		if e := &a.table[i]; e.pos != 0 {
			s := e.pos - 1
			below := a.words[s>>6] & (1<<(s&63) - 1)
			e.pos = a.tree[s>>6] + uint32(bits.OnesCount64(below)) + 1
		}
	}

	if nwords := int(a.live/64)*2 + 2; nwords > len(a.words) {
		a.words = make([]uint64, nwords)
		a.tree = make([]uint32, nwords+1)
	}
	full := int(a.live >> 6)
	for w := range a.words {
		switch {
		case w < full:
			a.words[w] = ^uint64(0)
		case w == full:
			a.words[w] = 1<<(a.live&63) - 1
		default:
			a.words[w] = 0
		}
	}
	for i := 1; i < len(a.tree); i++ {
		a.tree[i] = uint32(bits.OnesCount64(a.words[i-1]))
	}
	for i := 1; i < len(a.tree); i++ {
		if j := i + i&-i; j < len(a.tree) {
			a.tree[j] += a.tree[i]
		}
	}
	a.next = a.live
}

// Record processes one reference to addr and returns its stack distance
// (Infinite for cold references).
func (a *Analyzer) Record(addr mem.Addr) uint32 {
	d, _ := a.RecordTagged(addr, 0)
	return d
}

// RecordTagged is Record for a caller that keeps one uint32 of its own
// state per line (the fingerprinter's last-interval ordinal): it stores
// tag with the line and returns the tag stored by the line's previous
// reference, 0 when cold. Sharing the table entry spares the caller a
// second line-keyed map. Use either Record or RecordTagged on one
// Analyzer: Record stores tag 0.
func (a *Analyzer) RecordTagged(addr mem.Addr, tag uint32) (dist, prevTag uint32) {
	a.total++
	ln := uint64(addr) >> a.lineShift
	if ln == a.mruLine && a.live != 0 {
		// The latest line again: already on top, nothing moves.
		e := &a.table[a.mruIdx]
		prevTag, e.tag = e.tag, tag
		a.countDist(0)
		return 0, prevTag
	}
	if int(a.next) == len(a.words)*64 {
		a.compact()
	}
	i := a.find(ln)
	if a.table[i].pos == 0 {
		if (int(a.live)+1)*4 > len(a.table)*3 {
			a.growTable()
			i = a.find(ln)
		}
		a.cold++
		a.live++
		a.treeAdd(a.next>>6, 1)
		dist = Infinite
	} else {
		prevTag = a.table[i].tag
		s := a.table[i].pos - 1
		dist = a.above(s)
		a.countDist(dist)
		a.words[s>>6] &^= 1 << (s & 63)
		if s>>6 != a.next>>6 {
			a.treeAdd(s>>6, ^uint32(0))
			a.treeAdd(a.next>>6, 1)
		}
	}
	a.words[a.next>>6] |= 1 << (a.next & 63)
	a.next++
	a.table[i] = lineEntry{line: ln, pos: a.next, tag: tag}
	a.mruLine, a.mruIdx = ln, i
	return dist, prevTag
}

// countDist files one finite distance in the histogram.
func (a *Analyzer) countDist(d uint32) {
	if int(d) < len(a.hist) {
		a.hist[d]++
	} else {
		a.overflow++
	}
}

// Total returns the number of references recorded.
func (a *Analyzer) Total() uint64 { return a.total }

// Cold returns the number of cold (first-touch) references.
func (a *Analyzer) Cold() uint64 { return a.cold }

// DistinctLines returns the number of distinct lines touched.
func (a *Analyzer) DistinctLines() int { return int(a.live) }

// MissesForLines returns the miss count of a fully-associative LRU cache
// holding the given number of lines: cold misses plus every reference
// whose stack distance is >= lines.
func (a *Analyzer) MissesForLines(lines int) uint64 {
	misses := a.cold + a.overflow
	if lines < 0 {
		lines = 0
	}
	hi := len(a.hist)
	if lines < hi {
		for d := lines; d < hi; d++ {
			misses += a.hist[d]
		}
	}
	return misses
}

// Histogram returns the exact distance histogram and the overflow
// (too-deep) count. The histogram is the analyzer's own: read it before
// the next Record and do not modify it.
func (a *Analyzer) Histogram() (hist []uint64, overflow uint64) {
	return a.hist, a.overflow
}

// FinalDepths calls fn once per tracked line with the line's final LRU
// stack depth (0 = most recently used, 1 = next, ...). A line's final
// depth decides its end-of-trace residency in an LRU cache of any
// capacity: it is resident in a cache of A lines iff depth < A.
// Iteration order is unspecified. The analyzer is not mutated.
func (a *Analyzer) FinalDepths(fn func(line uint64, depth int)) {
	for i := range a.table {
		if e := &a.table[i]; e.pos != 0 {
			fn(e.line, int(a.above(e.pos-1)))
		}
	}
}

// WorkingSetLines returns the smallest capacity (in lines) at which the
// miss ratio falls below the given threshold, or -1 if even the full
// histogram depth does not achieve it. This operationalizes the paper's
// notion of a "working-set size": the knee of the miss curve.
func (a *Analyzer) WorkingSetLines(threshold float64) int {
	if a.total == 0 {
		return -1
	}
	// Binary search over capacities: miss count is non-increasing.
	lo, hi := 0, len(a.hist)
	if float64(a.MissesForLines(hi))/float64(a.total) > threshold {
		return -1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if float64(a.MissesForLines(mid))/float64(a.total) <= threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
