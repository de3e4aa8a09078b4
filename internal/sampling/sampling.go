// Package sampling implements representative-interval trace sampling —
// the approximate fast tier of the sweep engines (ROADMAP item 3, after
// Bueno et al., "Improving the Representativeness of Simulation
// Intervals for the Cache Memory System").
//
// A captured bus-event stream is sliced into fixed-length intervals of
// in-window memory transactions. Each interval is fingerprinted with
// the features that determine cache behavior — a log2-bucketed stack-
// distance histogram (whole-trace reuse distances, so an interval's
// fingerprint reflects the history it executes under), the interval's
// line footprint, cold-touch count, and load/store mix. The
// fingerprints are clustered with a deterministic k-means; one
// representative interval per cluster is then actually replayed
// (preceded by a configurable warmup prefix) and its per-config
// cache.Stats delta is scaled by the cluster weight to extrapolate
// full-trace statistics, with a confidence interval derived from the
// intra-cluster variance of a capacity-proxy miss estimate.
//
// The package computes plans and extrapolations only; the replay
// machinery that measures representative windows lives in core (the
// owner of the trace substrate). Everything here is deterministic for
// a fixed Params.Seed, and a Plan is a function of the stream and the
// Params alone — no cache geometry enters it — so tracestore memoizes
// one per capture (Trace.SamplePlan) and sweeps share it read-only.
package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/trace"
)

// LineSize is the fingerprinting granularity: reuse distances,
// footprints, and the capacity proxy are all counted in 64 B lines —
// the paper's fixed LLC line size — independent of the geometries the
// plan is later applied to (capacities convert via Size/LineSize).
const LineSize = 64

// NumBuckets is the stack-distance histogram resolution: bucket 0 holds
// distance 0, bucket b >= 1 holds [2^(b-1), 2^b). The top bucket
// absorbs everything deeper (2^26 lines = 4 GiB of 64 B-line footprint,
// far beyond any simulated working set).
const NumBuckets = 28

// minIntervalRefs floors the derived interval length: intervals shorter
// than this have too little reuse signal to fingerprint meaningfully.
const minIntervalRefs = 1024

// Params tunes the sampler. The zero value is not runnable; use Fast()
// or fill TargetIntervals/MaxClusters explicitly (Defaulted patches the
// statistical knobs).
type Params struct {
	// IntervalRefs fixes the interval length in in-window memory
	// transactions. 0 derives it from the stream size so the trace
	// splits into about TargetIntervals intervals.
	IntervalRefs uint64 `json:"interval_refs,omitempty"`
	// TargetIntervals is the interval count the derived length aims
	// for. Larger = finer phase resolution, more clustering input.
	TargetIntervals int `json:"target_intervals"`
	// MaxClusters bounds the k of k-means — the number of
	// representative intervals that will actually be replayed.
	MaxClusters int `json:"max_clusters"`
	// Warmup is the number of preceding intervals replayed (unmeasured)
	// before each representative to reconstruct cache state.
	Warmup int `json:"warmup"`
	// Seed makes the clustering deterministic: it picks the first
	// k-means center. Same fingerprints + same seed = same plan.
	Seed int64 `json:"seed"`
}

// Fast returns the preset behind WithSampling(SamplingFast): ~160
// intervals, 16 clusters, one warmup interval per representative —
// replaying at most 16*(1+1)/160 = 20% of the trace on streams large
// enough to leave the exact-fallback regime.
func Fast() Params {
	return Params{
		TargetIntervals: 160,
		MaxClusters:     16,
		Warmup:          1,
		Seed:            1,
	}
}

// The confidence interval's statistics, tuned against the exact oracle
// on all 8 workloads (see DESIGN.md §6): defaultZ scales the half-width
// in units of the extrapolation standard deviation, a wide multiplier on
// the proxy variance; defaultMinRelCI floors the relative half-width —
// the sampler never claims to be more accurate than this — absorbing
// proxy-model misfit when clusters look deceptively homogeneous.
const (
	defaultZ        = 4.0
	defaultMinRelCI = 0.08
)

// minAbsCI is the absolute floor on the miss-count half-width: below
// this few misses, counting noise dominates any model.
const minAbsCI = 64.0

// Defaulted fills the unset knobs. Two Params with equal Defaulted
// forms build the same Plan from the same stream, which makes the
// defaulted form the identity a plan is memoized under.
func (p Params) Defaulted() Params {
	if p.TargetIntervals <= 0 {
		p.TargetIntervals = 160
	}
	if p.MaxClusters <= 0 {
		p.MaxClusters = 16
	}
	if p.Warmup < 0 {
		p.Warmup = 0
	}
	return p
}

// Fingerprint is one interval's cache-relevant feature set. All counts
// are at LineSize granularity except Refs/Loads/Stores, which count
// pre-regulation bus transactions (the unit interval boundaries are
// defined in, so fingerprinting and measuring agree on where intervals
// start regardless of any config's line size).
type Fingerprint struct {
	// Refs counts in-window memory transactions.
	Refs uint64 `json:"refs"`
	// Loads and Stores split Refs by kind.
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
	// Blocks counts line-granular accesses (transactions straddling a
	// line boundary contribute one per touched line).
	Blocks uint64 `json:"blocks"`
	// Cold counts first-ever touches of a line (whole-trace cold).
	Cold uint64 `json:"cold"`
	// Footprint counts distinct lines touched within the interval.
	Footprint uint64 `json:"footprint"`
	// Hist is the log2-bucketed whole-trace stack-distance histogram of
	// the interval's non-cold block accesses.
	Hist [NumBuckets]uint64 `json:"hist"`
	// HistStale counts the subset of Hist whose line was last touched
	// more than Params.Warmup intervals before this one — the accesses
	// whose hit/miss outcome a sampled replay can get wrong, because
	// their reuse reaches past the warmup horizon into skipped stream.
	HistStale [NumBuckets]uint64 `json:"hist_stale"`
}

// ProxyMisses estimates the interval's miss count in a fully
// associative LRU cache of capLines lines, from the bucketed histogram:
// cold touches always miss, finite distances >= capLines miss, and the
// bucket straddling capLines contributes pro rata. This is the
// per-interval signal the confidence interval is computed from — a
// capacity proxy, not the true set-associative count.
func (fp *Fingerprint) ProxyMisses(capLines uint64) float64 {
	m := float64(fp.Cold)
	for b := 0; b < NumBuckets; b++ {
		if n := fp.Hist[b]; n > 0 {
			m += float64(n) * missFrac(b, capLines)
		}
	}
	return m
}

// SpuriousHits bounds the misses a sampled replay of this interval can
// report that the full-history replay would not: accesses that would
// hit at capLines lines of capacity (finite distance below capacity)
// but whose previous touch lies beyond the warmup horizon — the warmup
// prefix cannot have restored their line, so only carried-over state
// separates them from a spurious miss.
func (fp *Fingerprint) SpuriousHits(capLines uint64) float64 {
	var s float64
	for b := 0; b < NumBuckets; b++ {
		if n := fp.HistStale[b]; n > 0 {
			s += float64(n) * (1 - missFrac(b, capLines))
		}
	}
	return s
}

// missFrac returns the fraction of bucket b's distance range at or
// beyond a capacity of capLines lines.
func missFrac(b int, capLines uint64) float64 {
	lo, hi := bucketRange(b)
	switch {
	case lo >= capLines || b == NumBuckets-1 && hi < capLines:
		// Entirely at or beyond capacity (the open-ended top bucket
		// counts fully unless capacity clears its floor — in which case
		// its true depths are unknown and counting them as misses stays
		// conservative).
		return 1
	case hi < capLines:
		return 0
	default:
		return float64(hi-capLines+1) / float64(hi-lo+1)
	}
}

// bucketRange returns the inclusive distance range [lo, hi] of bucket b.
func bucketRange(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	return 1 << (b - 1), 1<<b - 1
}

// Interval is one fingerprinted slice of the stream, [Start, End) in
// in-window transaction index.
type Interval struct {
	Start uint64      `json:"start"`
	End   uint64      `json:"end"`
	FP    Fingerprint `json:"fp"`
}

// Cluster is one k-means cluster of the plan: the interval index that
// represents it and the number of intervals it stands for.
type Cluster struct {
	Representative int    `json:"representative"`
	Weight         uint64 `json:"weight"`
}

// Plan is a complete sample plan: the fingerprinted intervals, their
// cluster assignment, and the representatives to replay. A Plan (plus
// the measured per-cluster cache.Stats deltas) is everything the
// extrapolator needs.
type Plan struct {
	// Params is the (defaulted) parameter set the plan was built with.
	Params Params `json:"params"`
	// LineSize is the fingerprinting granularity (capacity conversions
	// divide config sizes by it).
	LineSize uint64 `json:"line_size"`
	// TotalRefs is the stream's in-window transaction count; Ignored
	// counts out-of-window transactions (the AF drop count).
	TotalRefs uint64 `json:"total_refs"`
	Ignored   uint64 `json:"ignored"`
	// Intervals partitions [0, TotalRefs) contiguously.
	Intervals []Interval `json:"intervals"`
	// Assign maps each interval to its cluster.
	Assign []int `json:"assign"`
	// Clusters lists the representatives, ordered by representative
	// interval index (so replay windows are already in stream order).
	Clusters []Cluster `json:"clusters"`
	// Exact marks the degenerate plan in which every interval is its
	// own singleton cluster: replaying it measures the entire stream
	// contiguously and the extrapolation is bit-exact, CI width zero.
	Exact bool `json:"exact"`
}

// Validate checks the plan's structural invariants — the guard the
// extrapolator runs before trusting boundaries and weights from any
// source (FuzzSamplePlan feeds it garbage on purpose).
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("sampling: nil plan")
	}
	if len(p.Intervals) == 0 {
		if p.TotalRefs != 0 || len(p.Assign) != 0 || len(p.Clusters) != 0 {
			return fmt.Errorf("sampling: empty plan with %d refs, %d assignments, %d clusters",
				p.TotalRefs, len(p.Assign), len(p.Clusters))
		}
		return nil
	}
	if p.LineSize == 0 {
		return fmt.Errorf("sampling: plan has no line size")
	}
	if len(p.Assign) != len(p.Intervals) {
		return fmt.Errorf("sampling: %d assignments for %d intervals", len(p.Assign), len(p.Intervals))
	}
	var pos uint64
	for i, iv := range p.Intervals {
		if iv.Start != pos || iv.End <= iv.Start {
			return fmt.Errorf("sampling: interval %d spans [%d, %d), want contiguous from %d", i, iv.Start, iv.End, pos)
		}
		pos = iv.End
	}
	if pos != p.TotalRefs {
		return fmt.Errorf("sampling: intervals cover %d refs, plan claims %d", pos, p.TotalRefs)
	}
	counts := make([]uint64, len(p.Clusters))
	for i, c := range p.Assign {
		if c < 0 || c >= len(p.Clusters) {
			return fmt.Errorf("sampling: interval %d assigned to cluster %d of %d", i, c, len(p.Clusters))
		}
		counts[c]++
	}
	for c, cl := range p.Clusters {
		if cl.Representative < 0 || cl.Representative >= len(p.Intervals) {
			return fmt.Errorf("sampling: cluster %d representative %d out of range", c, cl.Representative)
		}
		if p.Assign[cl.Representative] != c {
			return fmt.Errorf("sampling: cluster %d representative %d is assigned to cluster %d",
				c, cl.Representative, p.Assign[cl.Representative])
		}
		if cl.Weight == 0 || cl.Weight != counts[c] {
			return fmt.Errorf("sampling: cluster %d weight %d, but %d intervals assigned", c, cl.Weight, counts[c])
		}
	}
	return nil
}

// Window is one replay window of the plan: feed the cache from Feed,
// snapshot at MeasureStart, and take the measured delta at End. Windows
// come sorted by stream position with non-overlapping feed ranges.
type Window struct {
	Feed         uint64
	MeasureStart uint64
	End          uint64
	Cluster      int
}

// Windows derives the replay windows: each cluster's representative
// interval, preceded by up to Params.Warmup whole intervals of
// unmeasured warmup. Warmup ranges are clamped so consecutive windows
// never re-feed a region an earlier window already replayed (cache
// state carries over, which is strictly better warmup than a reset).
func (p *Plan) Windows() []Window {
	wins := make([]Window, 0, len(p.Clusters))
	for c, cl := range p.Clusters {
		rep := cl.Representative
		warm := rep - p.Params.Warmup
		if warm < 0 {
			warm = 0
		}
		wins = append(wins, Window{
			Feed:         p.Intervals[warm].Start,
			MeasureStart: p.Intervals[rep].Start,
			End:          p.Intervals[rep].End,
			Cluster:      c,
		})
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].MeasureStart < wins[j].MeasureStart })
	for i := 1; i < len(wins); i++ {
		if wins[i].Feed < wins[i-1].End {
			wins[i].Feed = wins[i-1].End
		}
	}
	return wins
}

// ReplayedRefs returns the number of in-window transactions the plan's
// windows replay (warmup included) — the cost the fast tier pays,
// against TotalRefs for the exact path.
func (p *Plan) ReplayedRefs() uint64 {
	var n uint64
	for _, w := range p.Windows() {
		n += w.End - w.Feed
	}
	return n
}

// Fingerprinter slices and fingerprints a bus-event stream. It
// implements fsb.Snooper with exactly the oracle engine's reference
// semantics — the shared fsb.AF decodes message transactions and gates
// everything on the MsgStart/MsgStop window, zero sizes count as one
// byte, and straddling transactions touch every covered line — so the
// transaction indices it assigns match what any other snooper of the
// same stream observes.
type Fingerprinter struct {
	params Params
	ivlen  uint64

	lineShift uint
	af        fsb.AF

	// sd yields every block's whole-history stack distance and, as the
	// line's tag, 1 + the ordinal of the interval that last touched it.
	sd *stackdist.Analyzer

	cur       Fingerprint
	intervals []Interval
}

// NewFingerprinter builds a fingerprinter for one stream. hintRefs is
// the expected stream length in bus events (tracestore.Summary's
// BusEvents): the interval length is derived from it up front so
// fingerprinting is single-pass.
func NewFingerprinter(p Params, hintRefs uint64) *Fingerprinter {
	p = p.Defaulted()
	ivlen := p.IntervalRefs
	if ivlen == 0 {
		ivlen = hintRefs / uint64(p.TargetIntervals)
		if ivlen < minIntervalRefs {
			ivlen = minIntervalRefs
		}
	}
	f := &Fingerprinter{
		params: p,
		ivlen:  ivlen,
		// maxLines=1: only Record's returned distances are used, never
		// the analyzer's own histogram, so keep it minimal.
		sd: stackdist.New(LineSize, 1),
	}
	for s := uint64(LineSize); s > 1; s >>= 1 {
		f.lineShift++
	}
	return f
}

// OnRef implements fsb.Snooper.
func (f *Fingerprinter) OnRef(r trace.Ref) {
	if !f.af.Ref(r) {
		return
	}
	if f.cur.Refs == f.ivlen {
		f.closeInterval()
	}
	f.cur.Refs++
	if r.Kind == mem.Store {
		f.cur.Stores++
	} else {
		f.cur.Loads++
	}
	first, last := r.Units(f.lineShift)
	iv := uint32(len(f.intervals)) + 1
	warm := uint64(f.params.Warmup)
	for blk := first; blk <= last; blk++ {
		f.cur.Blocks++
		d, prev := f.sd.RecordTagged(mem.Addr(blk<<f.lineShift), iv)
		if d == stackdist.Infinite {
			f.cur.Cold++
		} else {
			b := bits.Len64(uint64(d))
			if b >= NumBuckets {
				b = NumBuckets - 1
			}
			f.cur.Hist[b]++
			if prev != 0 && uint64(iv-prev) > warm {
				f.cur.HistStale[b]++
			}
		}
		if prev != iv {
			f.cur.Footprint++
		}
	}
}

// OnBatch implements fsb.BatchSnooper.
func (f *Fingerprinter) OnBatch(batch []trace.Ref) {
	for i := range batch {
		f.OnRef(batch[i])
	}
}

// OnMsg implements fsb.Snooper.
func (f *Fingerprinter) OnMsg(m fsb.Message) { f.af.Msg(m) }

// closeInterval seals the current interval.
func (f *Fingerprinter) closeInterval() {
	start := uint64(0)
	if n := len(f.intervals); n > 0 {
		start = f.intervals[n-1].End
	}
	f.intervals = append(f.intervals, Interval{Start: start, End: start + f.cur.Refs, FP: f.cur})
	f.cur = Fingerprint{}
}

// Build seals the stream and clusters the fingerprints into a Plan.
// Streams too short to amortize sampling — fewer intervals than the
// plan would replay anyway — degrade to the exact plan (every interval
// a singleton cluster), which measures the whole stream contiguously
// and extrapolates bit-exactly.
func (f *Fingerprinter) Build() (*Plan, error) {
	if f.cur.Refs > 0 {
		f.closeInterval()
	}
	p := &Plan{
		Params:    f.params,
		LineSize:  LineSize,
		Ignored:   f.af.Dropped,
		Intervals: f.intervals,
	}
	if n := len(f.intervals); n > 0 {
		p.TotalRefs = f.intervals[n-1].End
	}
	n := len(p.Intervals)
	if n == 0 {
		p.Exact = true
		return p, nil
	}

	// Exact fallback: when the cluster budget (representatives plus
	// their warmup prefixes) covers the stream anyway, sampling saves
	// nothing — return the bit-exact all-singleton plan instead.
	if n <= f.params.MaxClusters*(1+f.params.Warmup) {
		p.Exact = true
		p.Assign = make([]int, n)
		p.Clusters = make([]Cluster, n)
		for i := range p.Clusters {
			p.Assign[i] = i
			p.Clusters[i] = Cluster{Representative: i, Weight: 1}
		}
		return p, nil
	}

	// A short tail interval (fewer refs than the rest) is forced into
	// its own singleton cluster: its per-ref behavior is not comparable
	// and its weight must stay exactly 1.
	m := n
	tail := -1
	if p.Intervals[n-1].FP.Refs != f.ivlen {
		m = n - 1
		tail = n - 1
	}

	assign, reps := kmeans(features(p.Intervals[:m]), f.params.MaxClusters, f.params.Seed)
	p.Assign = make([]int, n)
	copy(p.Assign, assign)
	p.Clusters = make([]Cluster, len(reps))
	for c, rep := range reps {
		p.Clusters[c] = Cluster{Representative: rep}
	}
	if tail >= 0 {
		p.Assign[tail] = len(p.Clusters)
		p.Clusters = append(p.Clusters, Cluster{Representative: tail})
	}
	for _, c := range p.Assign {
		p.Clusters[c].Weight++
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sampling: built an invalid plan: %w", err)
	}
	return p, nil
}

// features turns fingerprints into z-score-normalized vectors: per-ref
// load/store mix plus per-block cold, footprint, and distance-bucket
// shares. Normalizing per interval first makes the vectors compare
// behavior, not length; z-scoring then weights every dimension equally.
func features(ivs []Interval) [][]float64 {
	const dims = NumBuckets + 4
	vecs := make([][]float64, len(ivs))
	for i, iv := range ivs {
		v := make([]float64, dims)
		refs := float64(iv.FP.Refs)
		if refs == 0 {
			refs = 1
		}
		blocks := float64(iv.FP.Blocks)
		if blocks == 0 {
			blocks = 1
		}
		v[0] = float64(iv.FP.Loads) / refs
		v[1] = float64(iv.FP.Stores) / refs
		v[2] = float64(iv.FP.Cold) / blocks
		v[3] = float64(iv.FP.Footprint) / blocks
		for b := 0; b < NumBuckets; b++ {
			v[4+b] = float64(iv.FP.Hist[b]) / blocks
		}
		vecs[i] = v
	}
	// z-score each dimension; zero-variance dimensions collapse to 0.
	for d := 0; d < dims; d++ {
		var sum, sumsq float64
		for _, v := range vecs {
			sum += v[d]
			sumsq += v[d] * v[d]
		}
		n := float64(len(vecs))
		mean := sum / n
		variance := sumsq/n - mean*mean
		if variance < 1e-12 {
			for _, v := range vecs {
				v[d] = 0
			}
			continue
		}
		inv := 1 / math.Sqrt(variance)
		for _, v := range vecs {
			v[d] = (v[d] - mean) * inv
		}
	}
	return vecs
}

// kmeans clusters the vectors into at most k clusters and returns the
// assignment plus one representative index per cluster (the member
// closest to its centroid). Fully deterministic: the seed picks the
// first center, farthest-point seeding picks the rest, Lloyd iterations
// break every tie toward the lowest index, and empty clusters are
// dropped.
func kmeans(vecs [][]float64, k int, seed int64) (assign []int, reps []int) {
	n := len(vecs)
	if k > n {
		k = n
	}
	centers := make([][]float64, 0, k)
	chosen := make([]int, 0, k)
	first := int(uint64(seed) % uint64(n))
	chosen = append(chosen, first)
	centers = append(centers, append([]float64(nil), vecs[first]...))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(vecs[i], centers[0])
	}
	for len(centers) < k {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if bestD <= 0 {
			break // remaining points coincide with a center
		}
		chosen = append(chosen, best)
		c := append([]float64(nil), vecs[best]...)
		centers = append(centers, c)
		for i := 0; i < n; i++ {
			if d := sqDist(vecs[i], c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	k = len(centers)

	assign = make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, sqDist(vecs[i], centers[0])
			for c := 1; c < k; c++ {
				if d := sqDist(vecs[i], centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; drop clusters that emptied (renumbering
		// deterministically by old index order).
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, len(vecs[0]))
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for d, x := range vecs[i] {
				sums[c][d] += x
			}
		}
		remap := make([]int, k)
		kept := 0
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				remap[c] = -1
				continue
			}
			remap[c] = kept
			inv := 1 / float64(counts[c])
			for d := range sums[c] {
				sums[c][d] *= inv
			}
			centers[kept] = sums[c]
			kept++
		}
		if kept < k {
			k = kept
			for i := 0; i < n; i++ {
				assign[i] = remap[assign[i]]
			}
		}
	}

	reps = make([]int, k)
	bestD := make([]float64, k)
	for c := range reps {
		reps[c] = -1
	}
	for i := 0; i < n; i++ {
		c := assign[i]
		d := sqDist(vecs[i], centers[c])
		if reps[c] < 0 || d < bestD[c] {
			reps[c], bestD[c] = i, d
		}
	}
	return assign, reps
}

// sqDist is the squared Euclidean distance.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
