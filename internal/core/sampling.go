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
	"runtime"
	"strconv"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/par"
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

	// Phase 2: measure the plan's windows, seeking between them by the
	// marks the plan's first measure published.
	ro.step(Progress{Phase: PhaseReplay})
	meas := ro.span.StartChild("measure")
	marks, _ := tr.WindowMarks().([]windowMark)
	m, err := measureWindows(tr, plan.Windows(), s.caches, len(plan.Clusters), marks)
	meas.SetAttr("decoded_refs", strconv.FormatUint(m.decoded, 10))
	meas.SetAttr("seeks", strconv.Itoa(m.seeks))
	meas.SetAttr("workers", strconv.Itoa(m.workers))
	meas.End()
	if err != nil {
		return RunSummary{}, err
	}
	if m.marks != nil {
		tr.SetWindowMarks(m.marks)
	}

	// Phase 3: extrapolate per canonical geometry.
	for j, i := range s.canon {
		perCluster := make([]cache.Stats, len(plan.Clusters))
		for c := range perCluster {
			perCluster[c] = m.deltas[c][j]
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

// windowMark is where a measure may resume decoding for one window: a
// batch start at or before the window's Feed index, with the AF state
// and the in-window transaction index t there.
type windowMark struct {
	at trace.Mark
	af fsb.AF
	t  uint64
}

// measured is what measureWindows returns: the per-cluster deltas
// (deltas[cluster][cache]) and what the pass cost.
type measured struct {
	deltas  [][]cache.Stats
	marks   []windowMark // one per window, from a clean pass given none
	decoded uint64       // records each worker decoded
	seeks   int          // seeks each worker made
	workers int
}

// measureWindows replays only the plan's windows from the stored
// stream, feeding every cache from each window's warmup start and
// snapshotting around its measured range. Transaction indexing is the
// fingerprinter's, through the same fsb.AF: in-window, pre-regulation
// memory transactions, messages and out-of-window refs skipped. Cache
// state deliberately carries over between windows — never reset — so
// the warmup prefix tops up real (if stale) contents.
//
// The caches are independent, so min(GOMAXPROCS, len(caches)) workers
// share them out in contiguous groups, each decoding the stream with
// its own player: every delta is the same at any width. Given marks
// (one per window), a worker seeks from one window to the next instead
// of decoding the gap.
func measureWindows(tr *tracestore.Trace, wins []sampling.Window, caches []*cache.Cache, nclusters int, marks []windowMark) (measured, error) {
	m := measured{deltas: make([][]cache.Stats, nclusters)}
	for c := range m.deltas {
		m.deltas[c] = make([]cache.Stats, len(caches))
	}
	m.workers = min(runtime.GOMAXPROCS(0), len(caches))
	var rec []windowMark
	if marks == nil {
		rec = make([]windowMark, len(wins))
	}
	err := par.ForEach(m.workers, m.workers, func(w int) error {
		lo, hi := w*len(caches)/m.workers, (w+1)*len(caches)/m.workers
		p, err := tr.Player()
		if err != nil {
			return err
		}
		if w > 0 {
			measureGroup(p, wins, caches[lo:hi], m.deltas, lo, marks, nil)
			return p.Err()
		}
		decoded, seeks, nrec := measureGroup(p, wins, caches[lo:hi], m.deltas, lo, marks, rec)
		m.decoded, m.seeks = decoded, seeks
		if nrec == len(wins) && p.Err() == nil {
			m.marks = rec
		}
		return p.Err()
	})
	if err != nil {
		return measured{}, err
	}
	return m, nil
}

// measureGroup is one worker's pass: it replays wins from p into
// caches, writing cache k's delta for a window to deltas[cluster][lo+k].
// Each batch's fed stretch goes to every cache at once, flushed before
// every snapshot so each lands on its transaction index. Given marks,
// the pass seeks ahead to a window's mark while nothing is fed; given
// rec, it records each window's mark before the batch that may reach
// the window's Feed. It returns the records it decoded, the seeks it
// made and the marks it recorded.
func measureGroup(p *trace.StreamPlayer, wins []sampling.Window, caches []*cache.Cache, deltas [][]cache.Stats, lo int, marks, rec []windowMark) (decoded uint64, seeks, nrec int) {
	snaps := make([]cache.Stats, len(caches))
	var (
		buf  [64]trace.Ref // 1 KB: the decode buffer stays in L1
		fed  [64]trace.Ref // the batch's fed stretch
		nfed int
		af   fsb.AF
		t    uint64 // in-window transaction index
		wi   int
	)
	flush := func() {
		if nfed > 0 {
			for _, c := range caches {
				c.AccessBatch(fed[:nfed])
			}
			nfed = 0
		}
	}
	for wi < len(wins) {
		for nrec < len(rec) && wins[nrec].Feed < t+uint64(len(buf)) {
			rec[nrec] = windowMark{p.Mark(), af, t}
			nrec++
		}
		if marks != nil && marks[wi].t > t {
			// The mark lies at or before wins[wi].Feed, so every record
			// skipped would only have passed through the AF.
			m := &marks[wi]
			p.Seek(m.at)
			af, t = m.af, m.t
			seeks++
		}
		n := p.NextBatch(buf[:])
		if n == 0 {
			break
		}
		decoded += uint64(n)
		for _, r := range buf[:n] {
			if !af.Ref(r) {
				continue
			}
			w := &wins[wi]
			if t == w.MeasureStart {
				flush()
				for k, c := range caches {
					snaps[k] = *c.Stats()
				}
			}
			if t >= w.Feed {
				fed[nfed] = r
				nfed++
			}
			if t++; t == w.End {
				flush()
				for k, c := range caches {
					deltas[w.Cluster][lo+k] = c.Stats().Sub(&snaps[k])
				}
				if wi++; wi == len(wins) {
					break
				}
			}
		}
		flush()
	}
	return decoded, seeks, nrec
}
