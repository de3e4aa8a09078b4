// Grading tests for the approximate fast tier: the sampled sweep's
// error bound is checked against the exact oracle on every registered
// workload and every verify geometry, the replay fraction is pinned to
// the fast-tier budget, and warmup length is metamorphically required
// not to hurt accuracy.

package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/oracle"
	"cmpmem/internal/sampling"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// samplingGradeParams mirrors the CI verify job's scale/seed so the
// grading here and `cosim -verify`'s sampling leg see the same streams.
func samplingGradeParams() workloads.Params {
	return workloads.Params{Seed: 3, Scale: 0.002}
}

// samplingErrorRow is one (workload, config) grading record of the JSON
// error report artifact.
type samplingErrorRow struct {
	Workload     string  `json:"workload"`
	Config       string  `json:"config"`
	ExactMisses  uint64  `json:"exact_misses"`
	EstMisses    uint64  `json:"est_misses"`
	MissLow      uint64  `json:"miss_low"`
	MissHigh     uint64  `json:"miss_high"`
	MissRelCI    float64 `json:"miss_rel_ci"`
	RelError     float64 `json:"rel_error"`
	ExactPlan    bool    `json:"exact_plan"`
	ReplayedRefs uint64  `json:"replayed_refs"`
	TotalRefs    uint64  `json:"total_refs"`
	InCI         bool    `json:"in_ci"`
}

// exactOracleMisses replays one workload through the differential
// oracle and returns the exact miss count per config (memoizing the
// capture in store so the sampled sweep reuses the same stream).
func exactOracleMisses(t *testing.T, name string, p workloads.Params, pc PlatformConfig, store *tracestore.Store, cfgs []cache.Config) []uint64 {
	t.Helper()
	orc, err := oracle.New(64)
	if err != nil {
		t.Fatal(err)
	}
	tracked := make([]*oracle.Tracked, len(cfgs))
	for i, llc := range cfgs {
		if tracked[i], err = orc.Track(llc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runNamed(name, p, pc, runOpts{store: store}, []fsb.Snooper{orc}); err != nil {
		t.Fatalf("%s: oracle replay: %v", name, err)
	}
	out := make([]uint64, len(cfgs))
	for i, tr := range tracked {
		out[i] = tr.Misses()
	}
	return out
}

// TestSamplingErrorBounds grades the fast tier against the exact
// oracle on all registered workloads and all verify geometries: the
// exact miss count must fall inside the reported confidence interval,
// and the interval must stay sanely narrow (its width bounded by a
// small fraction of the extrapolated access total). The per-row
// results are written as a JSON artifact, -verify-out style, to
// COSIM_SAMPLING_REPORT when set (a temp file otherwise).
func TestSamplingErrorBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload sweep grading is not a -short test")
	}
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	cfgs := verifyConfigs(p.Scale)

	var rows []samplingErrorRow
	for _, name := range registry.Names() {
		store := tracestore.New(0, "")
		exact := exactOracleMisses(t, name, p, pc, store, cfgs)
		sres, _, err := LLCSweep(name, p, pc, cfgs,
			WithTraceReuse(store), WithSampling(SamplingFast))
		if err != nil {
			t.Fatalf("%s: sampled sweep: %v", name, err)
		}
		for i, llc := range cfgs {
			r := sres[i]
			if r.Sampling == nil {
				t.Fatalf("%s/%s: sampled sweep attached no SamplingEstimate", name, llc.Name)
			}
			s := r.Sampling
			row := samplingErrorRow{
				Workload:     name,
				Config:       llc.Name,
				ExactMisses:  exact[i],
				EstMisses:    r.Stats.Misses,
				MissLow:      s.MissLow,
				MissHigh:     s.MissHigh,
				MissRelCI:    s.MissRelCI,
				ExactPlan:    s.Exact,
				ReplayedRefs: s.ReplayedRefs,
				TotalRefs:    s.TotalRefs,
				InCI:         exact[i] >= s.MissLow && exact[i] <= s.MissHigh,
			}
			if exact[i] > 0 {
				row.RelError = math.Abs(float64(r.Stats.Misses)-float64(exact[i])) / float64(exact[i])
			}
			rows = append(rows, row)

			id := fmt.Sprintf("%s/%s", name, llc.Name)
			if !row.InCI {
				t.Errorf("%s: exact %d misses outside CI [%d, %d] (estimate %d)",
					id, exact[i], s.MissLow, s.MissHigh, r.Stats.Misses)
			}
			if s.Exact {
				if r.Stats.Misses != exact[i] {
					t.Errorf("%s: exact-fallback plan reports %d misses, oracle %d", id, r.Stats.Misses, exact[i])
				}
				continue
			}
			// Sane-width cap: an interval claiming more than 5% of all
			// line requests as miss uncertainty (plus the absolute floor
			// for tiny-miss workloads) is useless as an estimate.
			width := float64(s.MissHigh - s.MissLow)
			cap := 0.05*float64(r.Stats.Accesses) + 256
			if width > cap {
				t.Errorf("%s: CI width %.0f exceeds the sane cap %.0f (accesses %d)",
					id, width, cap, r.Stats.Accesses)
			}
		}
	}

	out := os.Getenv("COSIM_SAMPLING_REPORT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "sampling_error_report.json")
	}
	blob, err := json.MarshalIndent(struct {
		Scale float64            `json:"scale"`
		Seed  int64              `json:"seed"`
		Rows  []samplingErrorRow `json:"rows"`
	}{p.Scale, p.Seed, rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sampling error report: %d rows -> %s", len(rows), out)
}

// TestSampledSweepReplayFraction pins the fast tier's budget on the
// paper's MDS flow: a fast-mode sweep must replay at most 25% of the
// full trace's in-window transactions, and a second, warm sweep of the
// same capture, seeking between windows, must decode under a third of
// its bus events.
func TestSampledSweepReplayFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("not a -short test")
	}
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	store := tracestore.New(0, "")
	res, _, err := LLCSweep("MDS", p, pc, verifyConfigs(p.Scale), WithSampling(SamplingFast), WithTraceReuse(store))
	if err != nil {
		t.Fatal(err)
	}
	root := telemetry.StartSpan("job")
	_, sum, err := LLCSweep("MDS", p, pc, verifyConfigs(p.Scale), WithSampling(SamplingFast), WithTraceReuse(store),
		WithParentSpan(root))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := strconv.ParseUint(root.Find("measure").Attrs["decoded_refs"], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if 3*decoded >= sum.BusEvents {
		t.Errorf("the warm sweep decoded %d of %d bus events, want under a third", decoded, sum.BusEvents)
	}
	s := res[0].Sampling
	if s == nil {
		t.Fatal("no sampling estimate")
	}
	if s.Exact {
		t.Fatalf("MDS at scale %g fell back to the exact plan (%d intervals); the budget check needs real sampling",
			p.Scale, s.Intervals)
	}
	if 4*s.ReplayedRefs > s.TotalRefs {
		t.Errorf("fast tier replayed %d of %d refs (%.1f%%), budget is 25%%",
			s.ReplayedRefs, s.TotalRefs, 100*float64(s.ReplayedRefs)/float64(s.TotalRefs))
	}
	t.Logf("MDS fast tier: %d/%d refs replayed (%.1f%%), %d intervals, %d clusters; warm sweep decoded %d of %d bus events",
		s.ReplayedRefs, s.TotalRefs, 100*float64(s.ReplayedRefs)/float64(s.TotalRefs),
		s.Intervals, s.Clusters, decoded, sum.BusEvents)
}

// TestWindowMarksMatchSequentialMeasure: a measure that seeks by the
// memoized window marks and fans the caches out returns exactly the
// per-cluster deltas of a sequential measure with no marks, at
// GOMAXPROCS 1 and 2 — on sampled plans, where it must seek, and on an
// exact plan, whose contiguous windows leave nothing to seek over. The
// sequential measure itself, with its batched feed, must match a
// record-by-record, reference-by-reference one.
func TestWindowMarksMatchSequentialMeasure(t *testing.T) {
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	cfgs := verifyConfigs(p.Scale)[:3] // 3 caches: uneven groups at width 2
	exactParams := sampling.Fast()
	exactParams.MaxClusters = 1 << 20
	cases := []struct {
		workload string
		params   sampling.Params
	}{{"SNP", sampling.Fast()}, {"RSEARCH", sampling.Fast()}, {"SNP", exactParams}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		ro := runOpts{store: tracestore.New(0, "")}
		tr, _, err := ro.openTrace(c.workload, p, pc, nil)
		if err != nil {
			t.Fatal(err)
		}
		fp := sampling.NewFingerprinter(c.params, tr.Summary.BusEvents)
		if err := replayTrace(tr, ro, []fsb.Snooper{fp}); err != nil {
			t.Fatal(err)
		}
		plan, err := fp.Build()
		if err != nil {
			t.Fatal(err)
		}
		if wantExact := c.params.MaxClusters == exactParams.MaxClusters; plan.Exact != wantExact {
			t.Fatalf("%s: plan.Exact = %v, the case needs %v", c.workload, plan.Exact, wantExact)
		}
		measure := func(marks []windowMark) measured {
			caches := make([]*cache.Cache, len(cfgs))
			for i, cfg := range cfgs {
				if caches[i], err = cache.New(cfg); err != nil {
					t.Fatal(err)
				}
			}
			m, err := measureWindows(tr, plan.Windows(), caches, len(plan.Clusters), marks)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		runtime.GOMAXPROCS(1)
		seq := measure(nil)
		if seq.marks == nil || seq.seeks != 0 {
			t.Fatalf("%s: the unmarked measure recorded no marks or sought %d times", c.workload, seq.seeks)
		}
		if want := perRefWindowDeltas(t, tr, plan, cfgs); !reflect.DeepEqual(seq.deltas, want) {
			t.Fatalf("%s: the batched measure's deltas differ from a per-reference measure's", c.workload)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			m := measure(seq.marks)
			id := fmt.Sprintf("%s exact=%v GOMAXPROCS=%d", c.workload, plan.Exact, procs)
			if !reflect.DeepEqual(m.deltas, seq.deltas) {
				t.Errorf("%s: the marked measure's deltas differ from the sequential measure's", id)
			}
			if m.workers != min(procs, len(cfgs)) || m.marks != nil {
				t.Errorf("%s: %d workers (want %d), recorded marks %v", id, m.workers, min(procs, len(cfgs)), m.marks != nil)
			}
			if plan.Exact && m.seeks != 0 {
				t.Errorf("%s: an exact plan sought %d times", id, m.seeks)
			}
			if !plan.Exact && (m.seeks == 0 || m.decoded >= seq.decoded) {
				t.Errorf("%s: %d seeks, %d records decoded against %d unmarked", id, m.seeks, m.decoded, seq.decoded)
			}
		}
	}
}

// TestSamplingWarmupMonotonic is the metamorphic warmup property: on a
// reference workload and geometry, lengthening the warmup prefix never
// makes the realized error meaningfully worse — more replayed history
// can only improve cache-state reconstruction.
func TestSamplingWarmupMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("not a -short test")
	}
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	// 16 MB/8way: the mid-capacity geometry, where warmup state
	// reconstruction has real leverage (at 4 MB the window itself
	// overwrites most state; at 64 MB cold misses dominate).
	cfgs := verifyConfigs(p.Scale)[2:3]
	store := tracestore.New(0, "")
	exact := exactOracleMisses(t, "SNP", p, pc, store, cfgs)

	// The plans are built here, not through a sweep: the sweep's
	// sampled tier always uses the sampling.Fast preset.
	ro := runOpts{store: store}
	tr, _, err := ro.openTrace("SNP", p, pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(warmup int) float64 {
		params := sampling.Fast()
		params.Warmup = warmup
		fp := sampling.NewFingerprinter(params, tr.Summary.BusEvents)
		if err := replayTrace(tr, ro, []fsb.Snooper{fp}); err != nil {
			t.Fatalf("warmup %d: %v", warmup, err)
		}
		plan, err := fp.Build()
		if err != nil {
			t.Fatalf("warmup %d: %v", warmup, err)
		}
		if plan.Exact {
			t.Fatalf("warmup %d: plan degenerated to exact; property needs real sampling", warmup)
		}
		c, err := cache.New(cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		m, err := measureWindows(tr, plan.Windows(), []*cache.Cache{c}, len(plan.Clusters), nil)
		if err != nil {
			t.Fatalf("warmup %d: %v", warmup, err)
		}
		perCluster := make([]cache.Stats, len(plan.Clusters))
		for k := range perCluster {
			perCluster[k] = m.deltas[k][0]
		}
		est, err := plan.Estimate(perCluster, cfgs[0].Size)
		if err != nil {
			t.Fatalf("warmup %d: %v", warmup, err)
		}
		return math.Abs(float64(est.Stats.Misses)-float64(exact[0])) / float64(exact[0])
	}

	e0 := relErr(0)
	e2 := relErr(2)
	t.Logf("SNP %s: rel error %.4f at warmup 0, %.4f at warmup 2 (exact %d)", cfgs[0].Name, e0, e2, exact[0])
	// Tolerance absorbs clustering noise: windows shift when warmup
	// changes, so equality is not exact even when state reconstruction
	// is already perfect.
	if e2 > e0+0.05 {
		t.Errorf("longer warmup worsened the error: %.4f (warmup 2) > %.4f (warmup 0) + 0.05", e2, e0)
	}
}

// perRefWindowDeltas is the plain reading of a window measure: decode
// record by record, feed each cache one reference at a time from the
// window's Feed index, snapshot at MeasureStart, take the delta at End.
func perRefWindowDeltas(t *testing.T, tr *tracestore.Trace, plan *sampling.Plan, cfgs []cache.Config) [][]cache.Stats {
	t.Helper()
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if caches[i], err = cache.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	deltas := make([][]cache.Stats, len(plan.Clusters))
	for c := range deltas {
		deltas[c] = make([]cache.Stats, len(caches))
	}
	snaps := make([]cache.Stats, len(caches))
	p, err := tr.Player()
	if err != nil {
		t.Fatal(err)
	}
	var af fsb.AF
	var tx uint64
	for _, w := range plan.Windows() {
		for ; tx < w.End; tx++ {
			r, ok := p.Next()
			for ok && !af.Ref(r) {
				r, ok = p.Next()
			}
			if !ok {
				t.Fatalf("stream ended at transaction %d of a window ending at %d (%v)", tx, w.End, p.Err())
			}
			if tx == w.MeasureStart {
				for k, c := range caches {
					snaps[k] = *c.Stats()
				}
			}
			if tx >= w.Feed {
				for _, c := range caches {
					c.AccessRef(r)
				}
			}
		}
		for k, c := range caches {
			deltas[w.Cluster][k] = c.Stats().Sub(&snaps[k])
		}
	}
	return deltas
}

// memoSink is a telemetry sink whose registry the plan-memo tests read
// the build/hit counters from.
func memoSink() *telemetry.Sink {
	return telemetry.NewSink(telemetry.NewRegistry(), nil, nil)
}

func planBuildsAndHits(s *telemetry.Sink) (builds, hits uint64) {
	reg := s.Registry()
	return reg.Counter("core_sampling_plan_builds_total").Value(),
		reg.Counter("core_sampling_plan_hits_total").Value()
}

// TestSamplePlanSharedAcrossGrids: a plan depends on the capture and
// the parameters, never on the grid, so two sampled sweeps of one
// stored capture with different grids fingerprint once — and return
// exactly what the same sweeps return from private stores, where each
// builds its own plan. The first sweep publishes its window marks, and
// the second seeks by them to the same bytes.
func TestSamplePlanSharedAcrossGrids(t *testing.T) {
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	grids := [][]cache.Config{verifyConfigs(p.Scale), LineSweepConfigs(p.Scale)}

	sink := memoSink()
	store := tracestore.New(0, "")
	var phases [][]string
	for k, g := range grids {
		var seen []string
		root := telemetry.StartSpan("job")
		shared, _, err := LLCSweep("MDS", p, pc, g, WithTraceReuse(store), WithSampling(SamplingFast),
			WithTelemetry(sink), WithParentSpan(root), WithProgress(func(pr Progress) {
				if pr.Phase != PhaseConfig {
					seen = append(seen, pr.Phase)
				}
			}))
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, seen)
		if seeks := root.Find("measure").Attrs["seeks"]; (seeks == "0") != (k == 0) {
			t.Errorf("sweep %d of the capture sought %s times", k+1, seeks)
		}
		private, _, err := LLCSweep("MDS", p, pc, g, WithSampling(SamplingFast))
		if err != nil {
			t.Fatal(err)
		}
		a, errA := json.Marshal(shared)
		b, errB := json.Marshal(private)
		if errA != nil || errB != nil || string(a) != string(b) || !reflect.DeepEqual(shared, private) {
			t.Errorf("grid of %d: sweep over the shared store differs from the private-store sweep", len(g))
		}
	}
	if builds, hits := planBuildsAndHits(sink); builds != 1 || hits != 1 {
		t.Errorf("%d plan builds and %d hits over two grids of one capture, want 1 and 1", builds, hits)
	}
	// The job-state contract: the sampling phase is announced before the
	// replay phase whether the plan was built or found.
	if want := []string{PhaseCapture, PhaseSample, PhaseReplay}; !reflect.DeepEqual(phases[0], want) {
		t.Errorf("first sweep announced %v, want %v", phases[0], want)
	}
	if want := []string{PhaseSample, PhaseReplay}; !reflect.DeepEqual(phases[1], want) {
		t.Errorf("memo-hit sweep announced %v, want %v", phases[1], want)
	}
}

// TestSamplePlanDiesWithCapture: the memo's lifetime is the capture's
// residency. A store too small to keep anything recaptures on every
// sweep, and every recapture fingerprints again.
func TestSamplePlanDiesWithCapture(t *testing.T) {
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	cfgs := verifyConfigs(p.Scale)[:2]
	sink := memoSink()
	store := tracestore.New(1, "") // every insert is evicted at once
	var first []LLCResult
	for i := 0; i < 2; i++ {
		res, _, err := LLCSweep("MDS", p, pc, cfgs, WithTraceReuse(store),
			WithSampling(SamplingFast), WithTelemetry(sink))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Error("the rebuilt plan gave different results")
		}
	}
	if builds, hits := planBuildsAndHits(sink); builds != 2 || hits != 0 {
		t.Errorf("%d builds and %d hits across an eviction, want 2 and 0", builds, hits)
	}
	if st := store.Stats(); st.Misses != 2 || st.Evictions != 2 {
		t.Errorf("store saw %d captures and %d evictions, want 2 and 2", st.Misses, st.Evictions)
	}
}

// TestConcurrentSampledSweepsShareOnePlan: N sampled sweeps racing on a
// cold capture cost one execution and one fingerprint pass (run under
// -race in CI: the plan and the trace are shared across goroutines).
func TestConcurrentSampledSweepsShareOnePlan(t *testing.T) {
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	grids := [][]cache.Config{verifyConfigs(p.Scale), LineSweepConfigs(p.Scale), CacheSweepConfigs(p.Scale)}
	sink := memoSink()
	store := tracestore.New(0, "")
	const sweeps = 6
	results := make([][]LLCResult, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := LLCSweep("MDS", p, pc, grids[i%len(grids)], WithTraceReuse(store),
				WithSampling(SamplingFast), WithTelemetry(sink))
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if builds, hits := planBuildsAndHits(sink); builds != 1 || hits != sweeps-1 {
		t.Errorf("%d builds and %d hits for %d concurrent sweeps, want 1 and %d", builds, hits, sweeps, sweeps-1)
	}
	if st := store.Stats(); st.Misses != 1 {
		t.Errorf("%d captures, want 1", st.Misses)
	}
	for i := len(grids); i < sweeps; i++ {
		if !reflect.DeepEqual(results[i], results[i-len(grids)]) {
			t.Errorf("sweep %d differs from sweep %d of the same grid", i, i-len(grids))
		}
	}
}
