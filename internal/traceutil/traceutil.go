// Package traceutil analyzes memory-reference streams one reference at
// a time: access mix, footprints, stride distribution, and windowed
// working sets (the phase-behavior view that motivated the paper's
// run-to-completion methodology). Its accumulators take one in-window
// reference per call, from a core.RefSnooper or core.TraceCapture
// callback.
package traceutil

import (
	"math/bits"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// StrideBuckets is the number of power-of-two stride histogram buckets
// (bucket i covers strides in [2^i, 2^(i+1)); bucket 0 is stride 0-1).
const StrideBuckets = 32

// Stats summarizes one trace.
type Stats struct {
	Refs   uint64
	Loads  uint64
	Stores uint64
	// PerCore counts references by issuing core.
	PerCore map[uint8]uint64
	// FootprintBytes is the distinct-64B-line footprint.
	FootprintBytes uint64
	// SeqFraction is the fraction of consecutive same-core references
	// with a forward stride within one line (streaming indicator).
	SeqFraction float64
	// StrideHist buckets |addr - prevAddr| per core, by power of two.
	StrideHist [StrideBuckets]uint64
}

// Collector accumulates Stats incrementally (one pass, O(footprint)
// memory).
type Collector struct {
	stats    Stats
	lines    map[uint64]struct{}
	lastAddr map[uint8]mem.Addr
	seqHits  uint64
	seqBase  uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		stats:    Stats{PerCore: make(map[uint8]uint64, 8)},
		lines:    make(map[uint64]struct{}, 1<<16),
		lastAddr: make(map[uint8]mem.Addr, 8),
	}
}

// Add accumulates one reference.
func (c *Collector) Add(r trace.Ref) {
	c.stats.Refs++
	if r.Kind == mem.Load {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}
	c.stats.PerCore[r.Core]++
	c.lines[uint64(r.Addr)>>6] = struct{}{}

	if prev, ok := c.lastAddr[r.Core]; ok {
		c.seqBase++
		var stride uint64
		if r.Addr >= prev {
			stride = uint64(r.Addr - prev)
			if stride <= 64 {
				c.seqHits++
			}
		} else {
			stride = uint64(prev - r.Addr)
		}
		bucket := 0
		if stride > 1 {
			bucket = bits.Len64(stride) - 1
		}
		if bucket >= StrideBuckets {
			bucket = StrideBuckets - 1
		}
		c.stats.StrideHist[bucket]++
	}
	c.lastAddr[r.Core] = r.Addr
}

// Stats finalizes and returns the summary.
func (c *Collector) Stats() Stats {
	s := c.stats
	s.FootprintBytes = uint64(len(c.lines)) * 64
	if c.seqBase > 0 {
		s.SeqFraction = float64(c.seqHits) / float64(c.seqBase)
	}
	return s
}

// WindowStat is the footprint of one fixed-size reference window — the
// phase-behavior timeline.
type WindowStat struct {
	// DistinctBytes is the 64 B-line footprint touched in the window.
	DistinctBytes uint64
	// StoreFraction is the stores share within the window.
	StoreFraction float64
}

// Windower segments a reference stream into windows of a fixed number
// of references and accumulates each window's footprint.
type Windower struct {
	per       uint64
	out       []WindowStat
	lines     map[uint64]struct{}
	n, stores uint64
}

// NewWindower returns a Windower cutting every windowRefs (>= 1)
// references.
func NewWindower(windowRefs uint64) *Windower {
	return &Windower{per: windowRefs, lines: make(map[uint64]struct{}, 1<<12)}
}

// Add accumulates one reference.
func (w *Windower) Add(r trace.Ref) {
	w.lines[uint64(r.Addr)>>6] = struct{}{}
	w.n++
	if r.Kind == mem.Store {
		w.stores++
	}
	if w.n == w.per {
		w.flush()
	}
}

func (w *Windower) flush() {
	if w.n == 0 {
		return
	}
	w.out = append(w.out, WindowStat{
		DistinctBytes: uint64(len(w.lines)) * 64,
		StoreFraction: float64(w.stores) / float64(w.n),
	})
	w.lines = make(map[uint64]struct{}, len(w.lines))
	w.n, w.stores = 0, 0
}

// Windows closes the final (possibly shorter) window and returns the
// timeline.
func (w *Windower) Windows() []WindowStat {
	w.flush()
	return w.out
}

// DominantStride returns the lower bound, in bytes, of the histogram
// bucket holding the most transitions (the first such bucket on a tie;
// the 0-1 bucket reports 1).
func (s *Stats) DominantStride() uint64 {
	best, bestCount := 0, uint64(0)
	for i, c := range s.StrideHist {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best == 0 {
		return 1
	}
	return 1 << best
}
