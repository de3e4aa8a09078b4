// Extrapolation: scale measured per-cluster cache.Stats deltas by
// cluster weights into full-trace statistics, and attach a confidence
// interval to the miss count.
//
// The extrapolation itself is pure integer arithmetic — every Stats
// field (including the per-core arrays) is Σ_c weight_c × delta_c — so
// conservation properties hold exactly: an all-singleton (Exact) plan
// reproduces the full-trace statistics bit for bit.
//
// The confidence interval comes from the fingerprints, not the
// measurement: each interval's capacity-proxy miss count (fully
// associative LRU at the config's line-equivalent capacity, from the
// bucketed stack-distance histogram) gives a per-cluster population
// variance; the classic cluster-sampling variance Σ n_c² σ_c² of the
// weighted total, expressed relative to the proxy total, scales the
// true miss estimate. defaultZ and defaultMinRelCI then widen the
// interval for proxy-model misfit — the margin DESIGN.md §6 justifies
// and the verify suite grades against the exact oracle.

package sampling

import (
	"fmt"
	"math"

	"cmpmem/internal/cache"
)

// Extrapolate scales the per-cluster measured deltas by the plan's
// cluster weights into full-trace statistics. The plan is validated
// first; malformed plans or a mismatched delta count return an error,
// never panic.
func Extrapolate(p *Plan, deltas []cache.Stats) (cache.Stats, error) {
	if err := p.Validate(); err != nil {
		return cache.Stats{}, err
	}
	if len(deltas) != len(p.Clusters) {
		return cache.Stats{}, fmt.Errorf("sampling: %d deltas for %d clusters", len(deltas), len(p.Clusters))
	}
	var out cache.Stats
	for c := range p.Clusters {
		out.AddScaled(&deltas[c], p.Clusters[c].Weight)
	}
	return out, nil
}

// Estimate is one config's extrapolated result: the full-trace Stats
// plus the miss-count confidence interval.
type Estimate struct {
	Stats     cache.Stats
	MissLow   uint64
	MissHigh  uint64
	MissRelCI float64
}

// Estimate extrapolates the deltas and derives the miss confidence
// interval for a cache of cfgSize bytes (capacity converts to lines at
// the plan's fingerprint line size). Exact plans report a zero-width
// interval — they are bit-exact by construction.
func (p *Plan) Estimate(deltas []cache.Stats, cfgSize uint64) (Estimate, error) {
	stats, err := Extrapolate(p, deltas)
	if err != nil {
		return Estimate{}, err
	}
	if p.Exact {
		return Estimate{Stats: stats, MissLow: stats.Misses, MissHigh: stats.Misses}, nil
	}
	var capLines uint64
	if p.LineSize > 0 {
		capLines = cfgSize / p.LineSize
	}

	// Per-cluster mean and population variance of the proxy misses.
	k := len(p.Clusters)
	sum := make([]float64, k)
	sumsq := make([]float64, k)
	for i, c := range p.Assign {
		m := p.Intervals[i].FP.ProxyMisses(capLines)
		sum[c] += m
		sumsq[c] += m * m
	}
	var proxyTotal, variance float64
	for c := 0; c < k; c++ {
		n := float64(p.Clusters[c].Weight)
		mean := sum[c] / n
		v := sumsq[c]/n - mean*mean
		if v < 0 {
			v = 0
		}
		proxyTotal += n * mean
		variance += n * n * v
	}

	// Relative half-width in proxy space, applied to the true estimate
	// (scale-invariant: a proxy that over- or under-counts uniformly
	// cancels out), floored by the model-misfit margin.
	est := float64(stats.Misses)
	rel := 1.0
	if proxyTotal > 0 {
		rel = defaultZ * math.Sqrt(variance) / proxyTotal
	}
	rel = max(rel, defaultMinRelCI)
	half := rel * est
	if half < minAbsCI {
		half = minAbsCI
	}

	// Warmup-bias bound. The measured windows can only OVER-count
	// misses relative to the full-history replay: an access whose reuse
	// reaches past the warmup horizon may find its line missing even
	// though exact replay would hit. The fingerprints bound this per
	// measured window (SpuriousHits), so the interval extends further
	// down than up by the weighted bound over the representatives.
	var bias float64
	for c := range p.Clusters {
		rep := p.Clusters[c].Representative
		bias += float64(p.Clusters[c].Weight) *
			p.Intervals[rep].FP.SpuriousHits(capLines)
	}

	low := est - half - bias
	if low < 0 {
		low = 0
	}
	e := Estimate{
		Stats:    stats,
		MissLow:  uint64(low),
		MissHigh: uint64(math.Ceil(est + half)),
	}
	if w := math.Max(est-low, half); est > 0 {
		e.MissRelCI = w / est
	} else if w > 0 {
		e.MissRelCI = 1
	}
	return e, nil
}
