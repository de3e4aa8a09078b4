package oracle

import (
	"fmt"
	"math"
)

// DistanceSummary condenses a set family's merged reuse-distance
// histogram into the numbers traceinfo -stackdist prints. Percentiles
// are over reuse (non-cold) distances, in lines; -1 means the
// percentile lies beyond the tracked histogram depth.
type DistanceSummary struct {
	// Requests is the number of in-window line-granular requests.
	Requests uint64
	// Distinct is the number of distinct lines touched.
	Distinct uint64
	// Cold counts first-touch (compulsory-miss) requests.
	Cold uint64
	// Depth is the histogram depth in lines: distances >= Depth are
	// only known to be "deeper", not exactly.
	Depth int
	// P50, P90, P99 are reuse-distance percentiles in lines (-1 when
	// beyond Depth).
	P50, P90, P99 int
}

// Reuse returns the number of non-cold requests.
func (s DistanceSummary) Reuse() uint64 { return s.Requests - s.Cold }

// Summary merges the per-set histograms of one registered set count
// into a DistanceSummary. With sets == 1 the distances are plain
// fully-associative reuse distances — the traceinfo use case.
func (e *Engine) Summary(sets uint64) (DistanceSummary, error) {
	f := e.families[sets]
	if f == nil {
		return DistanceSummary{}, fmt.Errorf("oracle: set count %d was never registered", sets)
	}
	merged := make([]uint64, f.maxAssoc)
	var s DistanceSummary
	s.Depth = f.maxAssoc
	s.Requests = e.accesses
	s.Distinct = uint64(e.lines.n)
	if f.fast {
		// Every block's first touch is cold in every family; distance 0
		// is counted per engine (see Engine.onTop), the rest per set.
		s.Cold = s.Distinct
		for k, g := range e.famList {
			merged[0] += e.onTop[k]
			if g == f {
				break
			}
		}
		copy(merged[1:], f.hist[1:])
	} else {
		for _, a := range f.perSet {
			s.Cold += a.Cold()
			hist, _ := a.Histogram() // overflow mass is Reuse - sum(merged)
			for d, n := range hist {
				merged[d] += n
			}
		}
	}
	s.P50 = percentile(merged, s.Reuse(), 0.50)
	s.P90 = percentile(merged, s.Reuse(), 0.90)
	s.P99 = percentile(merged, s.Reuse(), 0.99)
	return s, nil
}

// percentile returns the smallest distance d such that at least
// ceil(q*total) reuse requests had distance <= d, or -1 when that rank
// falls into the beyond-depth overflow.
func percentile(hist []uint64, total uint64, q float64) int {
	if total == 0 {
		return -1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for d, n := range hist {
		cum += n
		if cum >= rank {
			return d
		}
	}
	return -1
}
