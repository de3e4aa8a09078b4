// The sweep executor: the one implementation of "run a sweep".
//
// The paper's platform is one pipeline — execute under SoftSDV, snoop
// the FSB, emulate on Dragonhead, read the CB counters — and every
// sweep entry point runs the same four steps, each written once:
//
//	plan    PlanSweep on the flattened grids: geometry dedupe and the
//	        analytic/emulated partition (plan.go)
//	source  the live bus, or the memoized stream of a trace store —
//	        runNamed / openTrace (core.go, replay.go)
//	pass    one pass over the source feeding every answerer: the exact
//	        pass below (oracle, Dragonheads, timing hierarchies), or the
//	        sampled pass (sampling.go)
//	results one fan-out to caller order, one manifest
//
// The rule that keeps failures cheap and traces sealed: an answerer is
// built, and its geometry validated, before the source is touched.

package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/oracle"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/workloads"
)

// LLCSweep runs the named workload once while answering every given LLC
// configuration on one pass over its bus stream. It is the reference
// route: one Dragonhead per distinct geometry, all snooping the same
// execution, shared out over the host's cores by the bus like the
// paper's decoupled FPGA consumers — the one entry point that does not
// plan. WithSampling routes to the fast tier (estimates).
func LLCSweep(name string, p workloads.Params, pc PlatformConfig, llcs []cache.Config, opts ...RunOption) ([]LLCResult, RunSummary, error) {
	ro := applyOpts(append([]RunOption{WithEngine(EngineEmulate)}, opts...))
	res, _, sum, err := sweep(name, p, pc, [][]cache.Config{llcs}, nil, nil, ro)
	return res, sum, err
}

// CombinedSweep runs the named workload once while answering several
// config grids — e.g. the Figure 4-6 cache sweep plus the Figure 7
// line sweep — in a single planned pass. Geometries shared across
// grids are computed once; the result slices mirror the input grids
// element for element, each config under its own name. The planner
// answers the dominant line-size family analytically where that pays
// (PlanSweep) and emulates the rest, a ladder as one Dragonhead chain,
// bit-identical to LLCSweep's emulators.
func CombinedSweep(name string, p workloads.Params, pc PlatformConfig, grids [][]cache.Config, opts ...RunOption) ([][]LLCResult, RunSummary, error) {
	results, _, sum, err := sweep(name, p, pc, grids, nil, nil, applyOpts(opts))
	if err != nil {
		return nil, RunSummary{}, err
	}
	out := make([][]LLCResult, len(grids))
	k := 0
	for gi, g := range grids {
		out[gi] = results[k : k+len(g) : k+len(g)]
		k += len(g)
	}
	return out, sum, nil
}

// HierResult is the outcome of one timing-hierarchy config.
type HierResult struct {
	IPC        float64
	Cycles     float64
	L1         cache.Stats
	L2         cache.Stats
	L3         cache.Stats // zero unless the config had an L3
	Prefetches hier.PrefetchReport
}

// RunHier runs the named workload once while timing every given
// per-core L1/L2 hierarchy config (the Table 2 profiler and Figure 8
// testbed) on one pass over its bus stream: one hier.Machine per config
// behind one DL1 stage per distinct (Cores, DL1), all co-snooping the
// same execution like LLCSweep's emulators. The results mirror hcs. A
// hierarchy is always timed over the whole stream, so WithSampling does
// not apply.
func RunHier(name string, p workloads.Params, pc PlatformConfig, hcs []hier.Config, opts ...RunOption) ([]HierResult, RunSummary, error) {
	ro := applyOpts(opts)
	ro.sampling = SamplingOff
	_, res, sum, err := sweep(name, p, pc, nil, hcs, nil, ro)
	return res, sum, err
}

// sweepPass is step three: the answerers of one plan and the single
// pass over the source that feeds them. Its constructor builds and
// validates every answerer, so a bad geometry fails the sweep before
// any guest instruction executes.
type sweepPass interface {
	// run touches the source — executes, replays or samples the
	// workload's bus stream — and returns the execution totals.
	run(name string, p workloads.Params, pc PlatformConfig, ro runOpts) (RunSummary, error)
	// result is the answer for canonical config i of the plan (LLC left
	// for the caller to name). Valid once run has returned.
	result(i int) LLCResult
	// hierResult is the answer for the plan's hierarchy config j.
	hierResult(j int) HierResult
}

// sweep is the executor behind LLCSweep, CombinedSweep, RunHier and
// RunExhibits. observers are whole-stream snoopers fed on the same pass
// as the answerers. The LLC results come back flattened in grid order,
// the hierarchy results in the order of hcs.
func sweep(name string, p workloads.Params, pc PlatformConfig, grids [][]cache.Config, hcs []hier.Config, observers []fsb.Snooper, ro runOpts) ([]LLCResult, []HierResult, RunSummary, error) {
	var flat []cache.Config
	for _, g := range grids {
		flat = append(flat, g...)
	}

	// Plan. The two manifest kinds keep the one distinction that
	// changes numbers visible at top level: exact or estimated.
	kind, engine, build := "plansweep", ro.engine, newExactPass
	if ro.sampling != SamplingOff {
		// The fast tier replaces both legs; it takes only the dedupe
		// from the plan, which EngineEmulate never refuses.
		kind, engine, build = "sampledsweep", EngineEmulate, newSampledPass
	}
	plan, err := PlanSweep(flat, engine)
	if err != nil {
		return nil, nil, RunSummary{}, err
	}
	plan.Hiers = hcs
	ro.span = ro.rootSpan(kind + "/" + name)
	// A failed sweep must not seal a trace with open spans: the root
	// ends here on every path (End is idempotent), and each step below
	// ends its own children the same way.
	defer ro.span.End()
	start := time.Now()

	// Answerers, then source and pass.
	pass, err := build(plan, observers, ro)
	if err != nil {
		return nil, nil, RunSummary{}, err
	}
	sum, err := pass.run(name, p, pc, ro)
	if err != nil {
		return nil, nil, RunSummary{}, err
	}

	// Results: every config copies its canonical geometry's answer
	// under its own name, in caller order.
	collect := ro.span.StartChild("collect")
	results := make([]LLCResult, len(flat))
	for i, cfg := range flat {
		results[i] = pass.result(plan.Entries[i].Canonical)
		results[i].LLC = cfg
		ro.step(Progress{Phase: PhaseConfig, Config: cfg.Name, Done: i + 1, Total: len(flat)})
	}
	hiers := make([]HierResult, len(hcs))
	for j := range hiers {
		hiers[j] = pass.hierResult(j)
	}
	collect.End()
	ro.span.End()
	ro.reportSweep(kind, name, p, pc, sum, results, hiers, time.Since(start))
	return results, hiers, sum, nil
}

// reportSweep emits the sweep's run manifest — identity, wall time, the
// run summary's totals verbatim, the sealed span tree — from which the
// sink prints the progress line. The LLC and hierarchy records carry
// the exact totals of the returned results, so downstream consumers can
// bit-match the manifest against the API.
func (o runOpts) reportSweep(kind, name string, p workloads.Params, pc PlatformConfig, sum RunSummary, res []LLCResult, hiers []HierResult, d time.Duration) {
	if o.tel == nil {
		return
	}
	m := telemetry.Manifest{
		Kind:       kind,
		Workload:   name,
		Threads:    pc.Threads,
		Seed:       pc.Seed,
		Scale:      p.Scale,
		Quantum:    pc.Quantum,
		DurationNS: uint64(d.Nanoseconds()),
		Summary: &telemetry.RunTotals{
			Instructions: sum.Instructions,
			Loads:        sum.Loads,
			Stores:       sum.Stores,
			BusEvents:    sum.BusEvents,
		},
		Trace: o.span,
	}
	for _, r := range res {
		m.LLCs = append(m.LLCs, telemetry.LLCRecord{
			Name:      r.LLC.Name,
			SizeBytes: r.LLC.Size,
			LineSize:  r.LLC.LineSize,
			Assoc:     r.LLC.Assoc,
			Accesses:  r.Stats.Accesses,
			Misses:    r.Stats.Misses,
			MPKI:      r.MPKI,
			Samples:   len(r.Samples),
		})
	}
	for _, h := range hiers {
		m.Hiers = append(m.Hiers, telemetry.HierRecord{
			IPC:      h.IPC,
			Cycles:   h.Cycles,
			L1Misses: h.L1.Misses,
			L2Misses: h.L2.Misses,
		})
	}
	o.tel.Emit(&m)
}

// exactPass answers a plan bit-exactly: one Mattson engine tracking
// the analytic leg's geometries, one Dragonhead per emulated geometry
// and one timing hierarchy per hierarchy config, all co-snoopers of a
// single bus pass with the sweep's observers.
type exactPass struct {
	eng      *oracle.Engine
	tracked  []*oracle.Tracked      // by config index; nil off the analytic leg
	emus     []*dragonhead.Emulator // by config index; nil off the emulated leg
	machines []*hier.Machine        // by hierarchy config index
	snoopers []fsb.Snooper
}

func newExactPass(plan *SweepPlan, observers []fsb.Snooper, ro runOpts) (sweepPass, error) {
	flat := plan.Configs
	ro.span.SetAttr("analytic_configs", strconv.Itoa(len(plan.Analytic)))
	ro.span.SetAttr("emulated_configs", strconv.Itoa(len(plan.Emulated)))
	cfgSpan := ro.span.StartChild("configure")
	defer cfgSpan.End()
	reg := ro.tel.Registry()
	reg.Counter("core_plan_analytic_configs_total").Add(uint64(len(plan.Analytic)))
	reg.Counter("core_plan_emulated_configs_total").Add(uint64(len(plan.Emulated)))
	reg.Counter("core_plan_deduped_configs_total").Add(uint64(len(flat) - len(plan.Analytic) - len(plan.Emulated)))
	if saved := len(flat) + len(plan.Hiers) - plan.Passes(); saved > 0 {
		reg.Counter("core_plan_passes_saved_total").Add(uint64(saved))
	}

	x := &exactPass{
		tracked: make([]*oracle.Tracked, len(flat)),
		emus:    make([]*dragonhead.Emulator, len(flat)),
	}
	if len(plan.Analytic) > 0 {
		eng, err := oracle.New(plan.LineSize)
		if err != nil {
			return nil, err
		}
		// The emulated leg's CB clock, so analytic per-sample series
		// land on identical cycle boundaries.
		if err := eng.EnableSampling(dragonhead.DefaultClockHz, dragonhead.DefaultSamplePeriod); err != nil {
			return nil, err
		}
		for _, i := range plan.Analytic {
			if x.tracked[i], err = eng.Track(flat[i]); err != nil {
				return nil, fmt.Errorf("core: LLC %s: %w", flat[i].Name, err)
			}
		}
		x.eng = eng
		x.snoopers = append(x.snoopers, eng)
	}
	var emus []*dragonhead.Emulator
	for _, i := range plan.Emulated {
		dcfg, err := bankedConfig(flat[i])
		if err != nil {
			return nil, err
		}
		dcfg.Shards = ro.shardCount(dcfg.Banks)
		dcfg.Telemetry = reg
		dcfg.Trace = ro.span
		if x.emus[i], err = dragonhead.New(dcfg); err != nil {
			return nil, fmt.Errorf("core: LLC %s: %w", flat[i].Name, err)
		}
		emus = append(emus, x.emus[i])
	}
	answerers, chains, err := chainEmulators(emus)
	if err != nil {
		return nil, err
	}
	ro.span.SetAttr("dragonheads", strconv.Itoa(len(emus)))
	ro.span.SetAttr("emulator_chains", strconv.Itoa(chains))
	x.snoopers = append(x.snoopers, answerers...)
	machines, stages, err := hier.New(plan.Hiers...)
	if err != nil {
		return nil, err
	}
	ro.span.SetAttr("hier_machines", strconv.Itoa(len(machines)))
	ro.span.SetAttr("dl1_stages", strconv.Itoa(len(stages)))
	x.machines = machines
	x.snoopers = append(append(x.snoopers, stages...), observers...)
	return x, nil
}

// chainEmulators returns the snoopers that answer emus, in their order,
// and how many are chains: chainable emulators that agree on line size,
// associativity and banks run as one dragonhead.Chain when two or more
// do, in the first one's place; every other emulator runs alone.
func chainEmulators(emus []*dragonhead.Emulator) ([]fsb.Snooper, int, error) {
	key := func(e *dragonhead.Emulator) [3]uint64 {
		c := e.Config()
		return [3]uint64{c.LLC.LineSize, uint64(c.LLC.Assoc), uint64(c.Banks)}
	}
	groups := make(map[[3]uint64][]*dragonhead.Emulator)
	for _, e := range emus {
		if dragonhead.Chainable(e) == nil {
			groups[key(e)] = append(groups[key(e)], e)
		}
	}
	var out []fsb.Snooper
	chains := 0
	for _, e := range emus {
		switch g := groups[key(e)]; {
		case dragonhead.Chainable(e) != nil || len(g) == 1:
			out = append(out, e)
		case len(g) > 1:
			sort.Slice(g, func(a, b int) bool { return g[a].Config().LLC.Size < g[b].Config().LLC.Size })
			ch, err := dragonhead.Chain(g...)
			if err != nil {
				return nil, 0, err
			}
			out, chains = append(out, ch), chains+1
			groups[key(e)] = nil // the rest of the group rides in ch
		}
	}
	return out, chains, nil
}

func (x *exactPass) run(name string, p workloads.Params, pc PlatformConfig, ro runOpts) (RunSummary, error) {
	return runNamed(name, p, pc, ro, x.snoopers)
}

func (x *exactPass) result(i int) LLCResult {
	if t := x.tracked[i]; t != nil {
		return LLCResult{
			Stats:        t.Stats(),
			Instructions: x.eng.Instructions(),
			MPKI:         t.MPKI(),
			Samples:      t.Samples(),
			Ignored:      x.eng.Ignored(),
		}
	}
	e := x.emus[i]
	return LLCResult{
		Stats:        e.Stats(),
		Instructions: e.Instructions(),
		MPKI:         e.MPKI(),
		Samples:      e.Samples(),
		Ignored:      e.Ignored(),
	}
}

func (x *exactPass) hierResult(j int) HierResult {
	m := x.machines[j]
	return HierResult{
		IPC:        m.IPC(),
		Cycles:     m.Cycles(),
		L1:         m.L1Stats(),
		L2:         m.L2Stats(),
		L3:         m.L3Stats(),
		Prefetches: m.Prefetches(),
	}
}

// bankedConfig fits the physical board's CC banking to one LLC: tiny
// scaled caches (large lines at small Scale) and fully associative ones
// may have fewer sets than the four banks, so the banking shrinks to
// fit (exact-equivalence makes this free). Banks never drops below one;
// a cache too small to hold even one set per line is rejected here with
// a clear error instead of surfacing a confusing failure from
// dragonhead.New.
func bankedConfig(llc cache.Config) (dragonhead.Config, error) {
	cfg := dragonhead.DefaultConfig(llc)
	lines := uint64(0)
	if llc.LineSize > 0 {
		lines = llc.Size / llc.LineSize
	}
	sets := min(lines, 1) // fully associative: one set
	if assoc := uint64(llc.Assoc); assoc > 0 {
		sets = lines / assoc
	}
	if sets == 0 {
		return dragonhead.Config{}, fmt.Errorf(
			"core: LLC %s: cache too small for line size (size %d B, line %d B, assoc %d leaves no sets)",
			llc.Name, llc.Size, llc.LineSize, llc.Assoc)
	}
	for cfg.Banks > 1 && uint64(cfg.Banks) > sets {
		cfg.Banks /= 2
	}
	return cfg, nil
}
