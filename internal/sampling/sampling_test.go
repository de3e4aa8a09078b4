// Property and metamorphic tests for the sampler: plans are
// deterministic for a fixed seed, weights conserve the interval count,
// a single-cluster plan degenerates to whole-trace weights, short
// streams fall back to the bit-exact plan, and the extrapolator is an
// exact inverse on exact plans.

package sampling

import (
	"reflect"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// synthStream drives a deterministic phased access pattern through the
// fingerprinter: `phases` phases of `refs` transactions each, cycling
// through four distinct working sets so k-means has real structure.
func synthStream(f *Fingerprinter, phases, refs int) {
	f.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart}))
	x := uint64(12345)
	for p := 0; p < phases; p++ {
		base := uint64(p%4+1) << 24
		for i := 0; i < refs; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := base + (x>>33)%(1<<18)
			kind := mem.Load
			if x&7 == 0 {
				kind = mem.Store
			}
			f.OnRef(trace.Ref{Addr: mem.Addr(addr &^ 7), Size: 8, Kind: kind})
		}
	}
	f.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStop}))
}

// sampledParams yields a plan that genuinely samples (no exact
// fallback) on a 64-interval synthetic stream.
func sampledParams() Params {
	return Params{IntervalRefs: 1024, MaxClusters: 4, Warmup: 1, Seed: 7}
}

func buildPlan(t *testing.T, p Params, phases, refs int) *Plan {
	t.Helper()
	f := NewFingerprinter(p, 0)
	synthStream(f, phases, refs)
	plan, err := f.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("built plan fails its own Validate: %v", err)
	}
	return plan
}

func TestPlanDeterministic(t *testing.T) {
	a := buildPlan(t, sampledParams(), 64, 1024)
	b := buildPlan(t, sampledParams(), 64, 1024)
	if a.Exact {
		t.Fatal("plan fell back to exact; test needs a sampled plan")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same stream + same seed produced different plans")
	}
}

// TestPlanIsReadOnlyInUse: a plan is memoized on its capture and shared
// by every sampled sweep of it, concurrently — so nothing a sweep calls
// may write to it, and what it hands out must not alias its state.
func TestPlanIsReadOnlyInUse(t *testing.T) {
	used := buildPlan(t, sampledParams(), 64, 1024)
	pristine := buildPlan(t, sampledParams(), 64, 1024)

	wins := used.Windows()
	for i := range wins {
		wins[i] = Window{}
	}
	_ = used.ReplayedRefs()
	deltas := make([]cache.Stats, len(used.Clusters))
	for c := range deltas {
		deltas[c] = cache.Stats{Accesses: 1024, Misses: uint64(10 * c)}
	}
	for _, size := range []uint64{64 << 10, 4 << 20} {
		if _, err := used.Estimate(deltas, size); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(used, pristine) {
		t.Error("Windows / ReplayedRefs / Estimate changed the plan they were called on")
	}
}

func TestPlanSeedSensitivity(t *testing.T) {
	// Different seeds may legitimately converge to the same clustering;
	// the property that matters is that each is internally valid and
	// both conserve the interval count.
	for _, seed := range []int64{1, 2, 99} {
		p := sampledParams()
		p.Seed = seed
		plan := buildPlan(t, p, 64, 1024)
		var sum uint64
		for _, c := range plan.Clusters {
			sum += c.Weight
		}
		if sum != uint64(len(plan.Intervals)) {
			t.Errorf("seed %d: cluster weights sum to %d, want %d intervals", seed, sum, len(plan.Intervals))
		}
	}
}

func TestSingleClusterIsWholeTraceWeight(t *testing.T) {
	p := Params{IntervalRefs: 1024, MaxClusters: 1, Warmup: 0, Seed: 3}
	plan := buildPlan(t, p, 16, 1024)
	if plan.Exact {
		t.Fatal("plan fell back to exact; test needs a sampled plan")
	}
	// 16 equal intervals, one cluster allowed: the single representative
	// stands for the entire stream.
	if len(plan.Clusters) != 1 {
		t.Fatalf("MaxClusters=1 built %d clusters", len(plan.Clusters))
	}
	if w := plan.Clusters[0].Weight; w != uint64(len(plan.Intervals)) {
		t.Errorf("single cluster weight %d, want %d (whole trace)", w, len(plan.Intervals))
	}
	// Extrapolation then scales the one measured delta by the whole
	// interval count.
	delta := cache.Stats{Accesses: 10, Misses: 3}
	out, err := Extrapolate(plan, []cache.Stats{delta})
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(plan.Intervals))
	if out.Accesses != 10*n || out.Misses != 3*n {
		t.Errorf("extrapolated %d/%d, want %d/%d", out.Accesses, out.Misses, 10*n, 3*n)
	}
}

func TestExactFallback(t *testing.T) {
	// 3 intervals with a 16-cluster budget: sampling saves nothing, the
	// plan must degrade to bit-exact singletons.
	p := Params{IntervalRefs: 1024, MaxClusters: 16, Warmup: 1, Seed: 1}
	plan := buildPlan(t, p, 3, 1024)
	if !plan.Exact {
		t.Fatal("short stream did not fall back to the exact plan")
	}
	if len(plan.Clusters) != len(plan.Intervals) {
		t.Fatalf("exact plan has %d clusters for %d intervals", len(plan.Clusters), len(plan.Intervals))
	}
	// Windows must tile the stream contiguously (state carries over, so
	// replay is exactly a full-trace replay).
	wins := plan.Windows()
	var pos uint64
	for _, w := range wins {
		if w.Feed != pos || w.MeasureStart != w.Feed {
			t.Fatalf("exact window [%d,%d,%d) not contiguous from %d", w.Feed, w.MeasureStart, w.End, pos)
		}
		pos = w.End
	}
	if pos != plan.TotalRefs {
		t.Fatalf("exact windows cover %d refs, want %d", pos, plan.TotalRefs)
	}
	if got := plan.ReplayedRefs(); got != plan.TotalRefs {
		t.Errorf("exact plan replays %d of %d refs", got, plan.TotalRefs)
	}

	// The extrapolation of per-interval deltas is the plain sum, and the
	// estimate reports a zero-width interval.
	deltas := make([]cache.Stats, len(plan.Clusters))
	var wantMiss uint64
	for i := range deltas {
		deltas[i] = cache.Stats{Accesses: uint64(100 + i), Misses: uint64(10 + i)}
		wantMiss += deltas[i].Misses
	}
	est, err := plan.Estimate(deltas, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if est.Stats.Misses != wantMiss {
		t.Errorf("exact extrapolation %d misses, want %d", est.Stats.Misses, wantMiss)
	}
	if est.MissLow != wantMiss || est.MissHigh != wantMiss || est.MissRelCI != 0 {
		t.Errorf("exact estimate CI [%d,%d] rel=%v, want zero width", est.MissLow, est.MissHigh, est.MissRelCI)
	}
}

func TestWindowsInvariants(t *testing.T) {
	plan := buildPlan(t, sampledParams(), 64, 1024)
	wins := plan.Windows()
	if len(wins) != len(plan.Clusters) {
		t.Fatalf("%d windows for %d clusters", len(wins), len(plan.Clusters))
	}
	var prevEnd uint64
	for i, w := range wins {
		if w.Feed > w.MeasureStart || w.MeasureStart >= w.End {
			t.Fatalf("window %d malformed: feed=%d measure=%d end=%d", i, w.Feed, w.MeasureStart, w.End)
		}
		if w.Feed < prevEnd {
			t.Fatalf("window %d feed %d overlaps previous end %d", i, w.Feed, prevEnd)
		}
		prevEnd = w.End
	}
	if r := plan.ReplayedRefs(); r > plan.TotalRefs {
		t.Errorf("plan replays %d refs of a %d-ref stream", r, plan.TotalRefs)
	}
}

func TestIgnoredOutOfWindowRefs(t *testing.T) {
	f := NewFingerprinter(Params{IntervalRefs: 1024}, 0)
	// Host noise before MsgStart must be counted as ignored, not
	// fingerprinted.
	for i := 0; i < 10; i++ {
		f.OnRef(trace.Ref{Addr: mem.Addr(i * 64), Size: 8, Kind: mem.Load})
	}
	synthStream(f, 2, 1024)
	plan, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ignored != 10 {
		t.Errorf("ignored = %d, want 10", plan.Ignored)
	}
	if plan.TotalRefs != 2*1024 {
		t.Errorf("total refs = %d, want %d", plan.TotalRefs, 2*1024)
	}
}

func TestProxyMissesMonotone(t *testing.T) {
	plan := buildPlan(t, sampledParams(), 64, 1024)
	fp := &plan.Intervals[0].FP
	prev := fp.ProxyMisses(1)
	for _, capLines := range []uint64{16, 256, 4096, 1 << 16, 1 << 24} {
		m := fp.ProxyMisses(capLines)
		if m > prev+1e-9 {
			t.Fatalf("proxy misses grew with capacity: %v lines -> %v, had %v", capLines, m, prev)
		}
		prev = m
	}
	if got := fp.ProxyMisses(1 << 30); got != float64(fp.Cold) {
		t.Errorf("proxy misses at huge capacity = %v, want cold count %d", got, fp.Cold)
	}
}

func TestEstimateBracketsPointEstimate(t *testing.T) {
	plan := buildPlan(t, sampledParams(), 64, 1024)
	if plan.Exact {
		t.Fatal("need a sampled plan")
	}
	deltas := make([]cache.Stats, len(plan.Clusters))
	for i := range deltas {
		deltas[i] = cache.Stats{Accesses: 1024, Misses: uint64(50 * (i + 1))}
	}
	est, err := plan.Estimate(deltas, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if est.MissLow > est.Stats.Misses || est.MissHigh < est.Stats.Misses {
		t.Errorf("CI [%d,%d] does not bracket the estimate %d", est.MissLow, est.MissHigh, est.Stats.Misses)
	}
	if est.MissRelCI <= 0 {
		t.Errorf("sampled estimate reports rel CI %v, want > 0", est.MissRelCI)
	}
}

func TestExtrapolateRejectsMalformed(t *testing.T) {
	plan := buildPlan(t, sampledParams(), 64, 1024)
	if _, err := Extrapolate(plan, make([]cache.Stats, len(plan.Clusters)+1)); err == nil {
		t.Error("mismatched delta count accepted")
	}
	bad := *plan
	bad.Clusters = append([]Cluster(nil), plan.Clusters...)
	bad.Clusters[0].Weight++
	if _, err := Extrapolate(&bad, make([]cache.Stats, len(bad.Clusters))); err == nil {
		t.Error("inconsistent cluster weight accepted")
	}
	var nilPlan *Plan
	if _, err := Extrapolate(nilPlan, nil); err == nil {
		t.Error("nil plan accepted")
	}
}
