// The approximate fast tier: sampled sweeps. WithSampling makes the
// executor (sweep.go) answer with sampledPass, which fingerprints the
// captured stream once (internal/sampling), replays only the plan's
// representative windows into one cache per canonical geometry, and
// extrapolates full-trace statistics with confidence intervals. Unlike every other run option, sampling changes results —
// they become estimates — which is why the mode is part of a spec's
// cache identity in the server and of LLCResult via the Sampling field.

package core

import (
	"fmt"
	"strconv"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/sampling"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
)

// SamplingMode selects the sweep accuracy tier.
type SamplingMode int

const (
	// SamplingOff is the exact path (the zero value: existing callers
	// are untouched).
	SamplingOff SamplingMode = iota
	// SamplingFast replays representative intervals under the
	// sampling.Fast preset and extrapolates with confidence intervals.
	SamplingFast
)

// String names the mode (the -sampling flag vocabulary).
func (m SamplingMode) String() string {
	switch m {
	case SamplingOff:
		return "off"
	case SamplingFast:
		return "fast"
	default:
		return fmt.Sprintf("sampling(%d)", int(m))
	}
}

// ParseSampling parses the -sampling flag vocabulary.
func ParseSampling(s string) (SamplingMode, error) {
	switch s {
	case "off", "":
		return SamplingOff, nil
	case "fast":
		return SamplingFast, nil
	default:
		return 0, fmt.Errorf("core: unknown sampling mode %q (want off or fast)", s)
	}
}

// WithSampling selects the sweep accuracy tier. SamplingOff (the
// default) computes exact statistics; SamplingFast replays only
// representative trace intervals and extrapolates, attaching a
// SamplingEstimate with confidence intervals to every LLCResult.
// Unlike the wall-clock options, sampling changes the returned numbers.
func WithSampling(m SamplingMode) RunOption {
	return func(o *runOpts) { o.sampling = m }
}

// SamplingEstimate is the per-result record of a sampled sweep: how
// much of the trace was replayed and how far the miss estimate may sit
// from the exact count. Attached to LLCResult.Sampling (nil on exact
// sweeps).
type SamplingEstimate struct {
	// Mode is the tier that produced the estimate ("fast").
	Mode string `json:"mode"`
	// Exact marks the degenerate plan that measured the whole stream:
	// the stats are bit-exact and the interval has zero width.
	Exact bool `json:"exact"`
	// Intervals and Clusters describe the plan.
	Intervals int `json:"intervals"`
	Clusters  int `json:"clusters"`
	// ReplayedRefs / TotalRefs is the fraction of in-window
	// transactions actually replayed.
	ReplayedRefs uint64 `json:"replayed_refs"`
	TotalRefs    uint64 `json:"total_refs"`
	// [MissLow, MissHigh] is the miss-count confidence interval;
	// MissRelCI is its half-width relative to the estimate.
	MissLow   uint64  `json:"miss_low"`
	MissHigh  uint64  `json:"miss_high"`
	MissRelCI float64 `json:"miss_rel_ci"`
}

// sampledPass is the fast tier's pass (see sweepPass): one plain cache
// per canonical geometry, measured over the sample plan's windows of
// the stored stream only, each extrapolated to a full-trace estimate.
type sampledPass struct {
	mode   string
	cfgs   []cache.Config
	canon  []int          // canonical config indices, first-appearance order
	caches []*cache.Cache // caches[j] measures config canon[j]

	// Filled by run.
	plan         *sampling.Plan
	replayed     uint64
	instructions uint64
	ests         []sampling.Estimate // by config index
}

func newSampledPass(plan *SweepPlan, observers []fsb.Snooper, ro runOpts) (sweepPass, error) {
	if len(plan.Hiers)+len(observers) > 0 {
		// The windows are a fraction of the stream; a hierarchy or an
		// observer would silently report on that fraction alone.
		return nil, fmt.Errorf("core: a sampled sweep cannot time hierarchies or feed whole-stream snoopers")
	}
	s := &sampledPass{
		mode:   ro.sampling.String(),
		cfgs:   plan.Configs,
		canon:  plan.Emulated, // an EngineEmulate plan: every canonical config
		caches: make([]*cache.Cache, len(plan.Emulated)),
		ests:   make([]sampling.Estimate, len(plan.Configs)),
	}
	for j, i := range s.canon {
		c, err := cache.New(s.cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("core: LLC %s: %w", s.cfgs[i].Name, err)
		}
		s.caches[j] = c
	}
	return s, nil
}

func (s *sampledPass) run(name string, p workloads.Params, pc PlatformConfig, ro runOpts) (RunSummary, error) {
	if ro.store == nil {
		// Sampling is replay-shaped by construction; without a caller
		// store the capture is memoized privately for this sweep.
		ro.store = tracestore.New(0, "")
	}
	// The plan is built from the finished stream: capture alone.
	tr, _, err := ro.openTrace(name, p, pc, nil)
	if err != nil {
		return RunSummary{}, err
	}

	// Phase 1: the sample plan. The phase is announced whether the plan
	// is built or found — it is a job state callers observe.
	ro.step(Progress{Phase: PhaseSample})
	plan, replayed, err := samplePlan(tr, ro)
	if err != nil {
		return RunSummary{}, err
	}

	// Phase 2: measure the plan's windows in one pass over the stream.
	ro.step(Progress{Phase: PhaseReplay})
	meas := ro.span.StartChild("measure")
	deltas, err := measureWindows(tr, plan.Windows(), s.caches, len(plan.Clusters))
	meas.End()
	if err != nil {
		return RunSummary{}, err
	}

	// Phase 3: extrapolate per canonical geometry.
	for j, i := range s.canon {
		perCluster := make([]cache.Stats, len(plan.Clusters))
		for c := range perCluster {
			perCluster[c] = deltas[c][j]
		}
		if s.ests[i], err = plan.Estimate(perCluster, s.cfgs[i].Size); err != nil {
			return RunSummary{}, err
		}
	}
	s.plan, s.replayed, s.instructions = plan, replayed, tr.Summary.Instructions
	return tr.Summary, nil
}

func (s *sampledPass) result(i int) LLCResult {
	e, plan := &s.ests[i], s.plan
	return LLCResult{
		Stats:        e.Stats,
		Instructions: s.instructions,
		MPKI:         e.Stats.MPKI(s.instructions),
		Ignored:      plan.Ignored,
		Sampling: &SamplingEstimate{
			Mode:         s.mode,
			Exact:        plan.Exact,
			Intervals:    len(plan.Intervals),
			Clusters:     len(plan.Clusters),
			ReplayedRefs: s.replayed,
			TotalRefs:    plan.TotalRefs,
			MissLow:      e.MissLow,
			MissHigh:     e.MissHigh,
			MissRelCI:    e.MissRelCI,
		},
	}
}

// hierResult is never asked for: newSampledPass refuses hierarchy
// configs, which need the whole stream.
func (s *sampledPass) hierResult(int) HierResult { return HierResult{} }

// samplePlan returns the stream's sample plan under the sampling.Fast
// preset. A plan depends on the stream only, never on the grid, so it
// is memoized on the Trace: the first sampled sweep of a capture
// fingerprints and clusters, every later one finds the plan. Also
// returns how many transactions the plan's windows replay.
func samplePlan(tr *tracestore.Trace, ro runOpts) (plan *sampling.Plan, replayed uint64, err error) {
	sampSpan := ro.span.StartChild("sampling")
	defer sampSpan.End()
	plan, hit, err := tr.SamplePlan(func() (*sampling.Plan, error) {
		fpSpan := sampSpan.StartChild("fingerprint")
		defer fpSpan.End()
		fp := sampling.NewFingerprinter(sampling.Fast(), tr.Summary.BusEvents)
		if err := replayTrace(tr, ro, []fsb.Snooper{fp}); err != nil {
			return nil, err
		}
		fpSpan.End()
		clSpan := sampSpan.StartChild("cluster")
		defer clSpan.End()
		return fp.Build()
	})
	if err != nil {
		return nil, 0, err
	}
	replayed = plan.ReplayedRefs()
	reg := ro.tel.Registry()
	if hit {
		reg.Counter("core_sampling_plan_hits_total").Inc()
		sampSpan.SetAttr("plan", "hit")
	} else {
		reg.Counter("core_sampling_plan_builds_total").Inc()
		sampSpan.SetAttr("plan", "built")
	}
	reg.Counter("core_sampling_intervals_total").Add(uint64(len(plan.Intervals)))
	reg.Counter("core_sampling_clusters_total").Add(uint64(len(plan.Clusters)))
	reg.Counter("core_sampling_replayed_refs_total").Add(replayed)
	sampSpan.SetAttr("intervals", strconv.Itoa(len(plan.Intervals)))
	sampSpan.SetAttr("clusters", strconv.Itoa(len(plan.Clusters)))
	sampSpan.SetAttr("replayed_refs", strconv.FormatUint(replayed, 10))
	sampSpan.SetAttr("exact", strconv.FormatBool(plan.Exact))
	return plan, replayed, nil
}

// measureWindows replays only the plan's windows from the stored
// stream, feeding every cache from each window's warmup start and
// snapshotting around its measured range. Transaction indexing mirrors
// the fingerprinter exactly: in-window, pre-regulation memory
// transactions, messages and out-of-window refs skipped. Cache state
// deliberately carries over between windows — never reset — so the
// warmup prefix tops up real (if stale) contents.
func measureWindows(tr *tracestore.Trace, wins []sampling.Window, caches []*cache.Cache, nclusters int) ([][]cache.Stats, error) {
	deltas := make([][]cache.Stats, nclusters)
	for c := range deltas {
		deltas[c] = make([]cache.Stats, len(caches))
	}
	if len(wins) == 0 || len(caches) == 0 {
		return deltas, nil
	}
	p, err := tr.Player()
	if err != nil {
		return nil, err
	}
	snaps := make([]cache.Stats, len(caches))
	finalize := func(cluster int) {
		for k, c := range caches {
			deltas[cluster][k] = c.Stats().Sub(&snaps[k])
		}
	}
	var (
		buf       [64]trace.Ref // 1 KB: the decode buffer stays in L1
		window    bool
		t         uint64 // in-window transaction index
		wi        int
		measuring bool
	)
	for wi < len(wins) {
		n := p.NextBatch(buf[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			r := buf[i]
			if m, ok := fsb.DecodeMessage(r); ok {
				switch m.Kind {
				case fsb.MsgStart:
					window = true
				case fsb.MsgStop:
					window = false
				}
				continue
			}
			if !window {
				continue
			}
			if wi < len(wins) && measuring && t >= wins[wi].End {
				finalize(wins[wi].Cluster)
				measuring = false
				wi++
			}
			if wi < len(wins) {
				w := &wins[wi]
				if !measuring && t == w.MeasureStart {
					for k, c := range caches {
						snaps[k] = *c.Stats()
					}
					measuring = true
				}
				if t >= w.Feed && t < w.End {
					for _, c := range caches {
						c.AccessRef(r)
					}
				}
			}
			t++
		}
	}
	if measuring && wi < len(wins) {
		// The last window ends exactly at stream end: no later
		// transaction arrived to trigger the boundary.
		finalize(wins[wi].Cluster)
	}
	return deltas, p.Err()
}
