package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/verify"
	"cmpmem/internal/workloads"
)

// defaultSeconds is the timed region of one workload. BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 8

// size fixes every input dimension of a run. The seed chooses the data;
// nothing else about the inputs varies.
type size struct {
	// lib is the dataset scale of the library workloads. cosim's
	// default is 1/16; at 1/64 an exact sweep takes about a second, so a
	// run fits three set-ups and five or more iterations in its budget.
	lib float64
	// served is the scale of every spec in the served mix.
	served float64
	// bench, when set, replaces every workload's data-mining kernel: the
	// smoke size needs one whose dataset shrinks with the scale, and
	// FIMI's stops shrinking at 8 million bus events.
	bench string

	setupReps int // set-ups per timed run; setup_s is their median
	minIters  int // iterations per timed run, whatever -seconds says
	probeReps int // repetitions of each layer probe
	abPairs   int // traced/untraced iteration pairs in the traced pass

	servedSeeds, servedGrids int // distinct specs = seeds x grids
	servedRepeat             int // cached re-submissions per spec
	probeGrids               int // specs in the one-seed mix behind a library workload's server.* metrics
}

var fullSize = size{
	lib: 1.0 / 64, served: 1.0 / 128,
	setupReps: 3, minIters: 3, probeReps: 3, abPairs: 2,
	servedSeeds: 3, servedGrids: 12, servedRepeat: 10,
	probeGrids: 3,
}

var smokeSize = size{
	lib: 1.0 / 4096, served: 1.0 / 4096, bench: "SNP",
	setupReps: 1, minIters: 1, probeReps: 1, abPairs: 1,
	servedSeeds: 2, servedGrids: 2, servedRepeat: 2,
	probeGrids: 2,
}

// runCtx is what a pass works with.
type runCtx struct {
	opts   options
	size   size
	rec    *record
	outDir string
	// root is the traced pass's span tree; nil in the timed pass, where
	// every span call below is a free no-op on a nil receiver.
	root *telemetry.Span
}

// budget is the timed region's length: -seconds, or nothing beyond the
// minimum iteration count at smoke size.
func (rc *runCtx) budget() float64 {
	if rc.opts.smoke {
		return 0
	}
	return rc.opts.seconds
}

// workload is one named set of inputs with its two passes.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json repeats.
	why    string
	timed  func(*runCtx)
	traced func(*runCtx)
}

var allWorkloads = []workload{
	liveSweep.workload(),
	coldCapture.workload(),
	planAnalytic.workload(),
	replayEmulate.workload(),
	sampledFast.workload(),
	servedMix,
}

func findWorkload(name string) *workload {
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			return &allWorkloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i := range allWorkloads {
		names[i] = allWorkloads[i].name
	}
	return names
}

// library is a workload that calls the sweep entry points directly, with
// the options a cmpmem.LLCSweep / cmpmem.CombinedSweep user gets by default.
type library struct {
	name, why string
	bench     string // registry name of the data-mining workload
	threads   int
	grid      func(scale float64) []cache.Config
	// engine is the entry point's default: LLCSweep emulates every
	// configuration, CombinedSweep plans.
	engine core.Engine
	// sweep is one iteration.
	sweep func(st *libState, opts ...core.RunOption) ([]core.LLCResult, core.RunSummary, error)
	// reference recomputes the results by an independent route, untimed,
	// and checks got against them.
	reference func(st *libState, rec *record, got []core.LLCResult, sum core.RunSummary)
	// predict is the blocking path rebuilt from layer costs, in seconds;
	// core.unattributed_share is what it leaves of the measured sweep.
	predict func(c costs) float64
}

func (l *library) workload() workload {
	return workload{name: l.name, why: l.why, timed: l.timed, traced: l.traced}
}

// libState is what one set-up leaves for the iterations.
type libState struct {
	lib   *library
	bench string
	p     workloads.Params
	pc    core.PlatformConfig
	grid  []cache.Config
	// store is the state's trace store. The warm workloads pass it to
	// every sweep, so set-up's sweep captures and the timed ones replay;
	// live-sweep and cold-capture leave it empty.
	store   *tracestore.Store
	scratch string // directory for spill files, removed at the end
	// offWall and offCPU accumulate what a sweep did off the clock.
	offWall, offCPU float64
}

// offClock runs fn inside a sweep without charging it to the iteration.
func (st *libState) offClock(fn func()) {
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	st.offWall += time.Since(t0).Seconds()
	st.offCPU += cpuSeconds() - c0
}

func (l *library) newState(rc *runCtx) (*libState, error) {
	scale := rc.size.lib
	st := &libState{
		lib:   l,
		bench: l.bench,
		p:     workloads.Params{Seed: rc.opts.seed, Scale: scale},
		pc:    core.PlatformConfig{Threads: l.threads, Seed: rc.opts.seed},
		grid:  l.grid(scale),
		store: tracestore.New(0, ""),
	}
	if rc.size.bench != "" {
		st.bench = rc.size.bench
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	st.scratch = dir
	return st, nil
}

func (st *libState) close() { os.RemoveAll(st.scratch) }

// with returns opts plus extra without writing into the caller's slice.
func with(opts []core.RunOption, extra ...core.RunOption) []core.RunOption {
	return append(append([]core.RunOption(nil), opts...), extra...)
}

// liveLadder is the eight-LLC ladder of live-sweep: 64 KB to 8 MB in
// powers of two, 64 B lines, 16 ways.
func liveLadder(float64) []cache.Config {
	var out []cache.Config
	for sz := uint64(64 << 10); sz <= 8<<20; sz *= 2 {
		out = append(out, cache.Config{Name: fmt.Sprintf("LLC-%dKB", sz>>10), Size: sz, LineSize: 64, Assoc: core.LLCAssoc})
	}
	return out
}

// lineAndPolicyGrid is Figure 7's seven line sizes plus FIFO and Random
// variants of the 64 B point: nine configurations of which the analytic
// engine can answer one.
func lineAndPolicyGrid(scale float64) []cache.Config {
	grid := core.LineSweepConfigs(scale)
	for _, repl := range []cache.Policy{cache.FIFO, cache.Random} {
		c := grid[0]
		c.Name += "/" + repl.String()
		c.Repl = repl
		grid = append(grid, c)
	}
	return grid
}

// storedSweep is CombinedSweep over the state's warm store.
func storedSweep(st *libState, opts ...core.RunOption) ([]core.LLCResult, core.RunSummary, error) {
	return combined(st, with(opts, core.WithTraceReuse(st.store))...)
}

func combined(st *libState, opts ...core.RunOption) ([]core.LLCResult, core.RunSummary, error) {
	res, sum, err := core.CombinedSweep(st.bench, st.p, st.pc, [][]cache.Config{st.grid}, opts...)
	if err != nil {
		return nil, sum, err
	}
	return res[0], sum, nil
}

// liveEmulated executes the guest with one emulator per configuration
// and no store: the route the replaying workloads are checked against.
func liveEmulated(st *libState, rec *record, got []core.LLCResult, sum core.RunSummary) {
	want, wsum, err := combined(st, core.WithEngine(core.EngineEmulate))
	if !rec.check(err == nil, "live reference run: %v", err) {
		return
	}
	checkSame(rec, "replay vs live execution", got, want, sum, wsum)
}

var liveSweep = library{
	name:    "live-sweep",
	why:     "the paper's pipeline end to end: guest execution, serial bus, eight emulators on the per-ref path; trace codec, oracle, sampling and server idle",
	bench:   "FIMI",
	threads: 8,
	grid:    liveLadder,
	sweep: func(st *libState, opts ...core.RunOption) ([]core.LLCResult, core.RunSummary, error) {
		return core.LLCSweep(st.bench, st.p, st.pc, st.grid, opts...)
	},
	// One configuration is replayed against verify's naive timestamp-LRU
	// cache, which shares no code with cache.Cache.
	reference: func(st *libState, rec *record, got []core.LLCResult, sum core.RunSummary) {
		i := len(st.grid) / 2
		cfg := st.grid[i]
		ref, err := verify.NewRefCache(cfg.Size, cfg.LineSize, cfg.Assoc)
		if !rec.check(err == nil, "reference cache: %v", err) {
			return
		}
		rsum, err := core.Run(st.bench, st.p, st.pc, &verify.BusAdapter{Target: ref})
		if !rec.check(err == nil, "reference run: %v", err) {
			return
		}
		s := got[i].Stats
		rec.check(s.Accesses == ref.Accesses() && s.Misses == ref.Misses() && s.Loads == ref.Loads() &&
			s.Stores == ref.Stores() && s.LoadMisses == ref.LoadMisses(),
			"%s: emulator %d accesses / %d misses, reference cache %d / %d", cfg.Name, s.Accesses, s.Misses, ref.Accesses(), ref.Misses())
		rec.check(rsum == sum && got[i].Instructions == rsum.Instructions, "run summary %+v, reference run %+v", sum, rsum)
	},
	predict: func(c costs) float64 {
		return c.runS + c.events*(c.dispatchNS+c.emulateNS)/1e9
	},
}

var coldCapture = library{
	name:    "cold-capture",
	why:     "first-sweep cost of a new capture: execute, v2-encode and spill, then a fresh process-like store revives the spill and replays it; the write side of trace and tracestore",
	bench:   "MDS",
	threads: 8,
	grid: func(float64) []cache.Config {
		return []cache.Config{{Name: "LLC-2MB", Size: 2 << 20, LineSize: 64, Assoc: core.LLCAssoc}}
	},
	sweep: func(st *libState, opts ...core.RunOption) ([]core.LLCResult, core.RunSummary, error) {
		dir, err := os.MkdirTemp(st.scratch, "spill-")
		if err != nil {
			return nil, core.RunSummary{}, err
		}
		defer st.offClock(func() { os.RemoveAll(dir) })
		half := func(wantDisk uint64) ([]core.LLCResult, core.RunSummary, error) {
			store := tracestore.New(0, dir)
			res, sum, err := core.LLCSweep(st.bench, st.p, st.pc, st.grid, with(opts, core.WithTraceReuse(store))...)
			if got := store.Stats().DiskHits; err == nil && got != wantDisk {
				err = fmt.Errorf("store served %d disk hits, want %d", got, wantDisk)
			}
			return res, sum, err
		}
		cold, csum, err := half(0)
		if err != nil {
			return nil, csum, err
		}
		// The second half stands for a later process finding the spill:
		// it does not inherit the first half's garbage.
		st.offClock(runtime.GC)
		warm, wsum, err := half(1)
		if err != nil {
			return nil, wsum, err
		}
		if csum != wsum || len(cold) != len(warm) || !sameResult(cold[0], warm[0]) {
			return nil, wsum, fmt.Errorf("replay of the spilled capture differs from the capturing run")
		}
		return warm, wsum, nil
	},
	reference: func(st *libState, rec *record, got []core.LLCResult, sum core.RunSummary) {
		want, wsum, err := core.LLCSweep(st.bench, st.p, st.pc, st.grid)
		if !rec.check(err == nil, "live reference run: %v", err) {
			return
		}
		checkSame(rec, "spill replay vs live execution", got, want, sum, wsum)
	},
	predict: func(c costs) float64 {
		replay := c.events * (c.decodeNS + c.dispatchNS + c.emulateNS) / 1e9
		return c.runS + c.events*c.recordNS/1e9 + c.spillWriteS + c.spillLoadS + 2*replay
	},
}

var planAnalytic = library{
	name:    "plan-analytic",
	why:     "Figure 4's seven LRU sizes answered by one analytic pass over a warm capture: the oracle does nearly all the work, cache and dragonhead none",
	bench:   "MDS",
	threads: 8,
	grid:    core.CacheSweepConfigs,
	engine:  core.EngineAuto,
	sweep:   storedSweep,
	// The same grid emulated, one Dragonhead per size.
	reference: func(st *libState, rec *record, got []core.LLCResult, sum core.RunSummary) {
		want, wsum, err := storedSweep(st, core.WithEngine(core.EngineEmulate))
		if !rec.check(err == nil, "emulated reference sweep: %v", err) {
			return
		}
		checkSame(rec, "analytic vs emulated", got, want, sum, wsum)
	},
	predict: func(c costs) float64 {
		return c.events*(c.decodeNS+c.dispatchNS+c.oracleNS)/1e9 + c.trackS
	},
}

var replayEmulate = library{
	name:      "replay-emulate",
	why:       "nine configurations the oracle cannot answer except one (large lines, FIFO, Random) replayed from a warm capture: trace decode and the set path dominate, softsdv idle",
	bench:     "RSEARCH",
	threads:   32,
	grid:      lineAndPolicyGrid,
	engine:    core.EngineAuto,
	sweep:     storedSweep,
	reference: liveEmulated,
	predict: func(c costs) float64 {
		return c.events*(c.decodeNS+c.dispatchNS+c.oracleNS+c.emulateNS)/1e9 + c.trackS
	},
}

var sampledFast = library{
	name:    "sampled-fast",
	why:     "replay-emulate's grid answered by the sampled tier: fingerprint and stack-distance passes dominate; every estimate is graded against the exact sweep",
	bench:   "RSEARCH",
	threads: 32,
	grid:    lineAndPolicyGrid,
	engine:  core.EngineAuto,
	sweep: func(st *libState, opts ...core.RunOption) ([]core.LLCResult, core.RunSummary, error) {
		return storedSweep(st, with(opts, core.WithSampling(core.SamplingFast))...)
	},
	// An estimate is not wrong for missing the exact count, so accuracy
	// is graded in the traced pass (sampling.err_pct, .ci_width_pct,
	// .ci_coverage). What must hold here is that the estimates describe
	// the same run and are consistent with their own intervals.
	reference: func(st *libState, rec *record, got []core.LLCResult, sum core.RunSummary) {
		_, esum, err := storedSweep(st)
		if !rec.check(err == nil, "exact reference sweep: %v", err) {
			return
		}
		rec.check(sum == esum, "run summary %+v, exact sweep %+v", sum, esum)
		for _, g := range got {
			s := g.Sampling
			rec.check(s != nil && s.MissLow <= g.Stats.Misses && g.Stats.Misses <= s.MissHigh && g.Instructions == esum.Instructions,
				"%s: estimate of %d misses is outside its own interval %+v", g.LLC.Name, g.Stats.Misses, s)
		}
	},
	predict: func(c costs) float64 {
		return c.events*(c.decodeNS+c.dispatchNS+c.fingerprintNS)/1e9 + c.planBuildS + c.windowsS
	},
}

// sameResult reports whether two results carry bit-identical simulated
// statistics. Names are the caller's business.
func sameResult(a, b core.LLCResult) bool {
	if a.Stats != b.Stats || a.Instructions != b.Instructions || a.MPKI != b.MPKI ||
		a.Ignored != b.Ignored || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	return true
}

// checkSame checks got against an independently computed want, one
// operation per configuration plus one for the run summary.
func checkSame(rec *record, what string, got, want []core.LLCResult, gsum, wsum core.RunSummary) {
	rec.check(gsum == wsum, "%s: run summary %+v, reference %+v", what, gsum, wsum)
	if !rec.check(len(got) == len(want), "%s: %d results, reference has %d", what, len(got), len(want)) {
		return
	}
	for i := range got {
		rec.check(sameResult(got[i], want[i]), "%s: %s: %d misses of %d accesses (MPKI %v), reference %d of %d (MPKI %v)",
			what, got[i].LLC.Name, got[i].Stats.Misses, got[i].Stats.Accesses, got[i].MPKI,
			want[i].Stats.Misses, want[i].Stats.Accesses, want[i].MPKI)
	}
}

// digest is the SHA-256 of the canonical form of a sweep's results.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func sweepDigest(res []core.LLCResult, sum core.RunSummary) string {
	canon := append([]core.LLCResult(nil), res...)
	for i := range canon {
		if canon[i].Samples == nil {
			canon[i].Samples = []dragonhead.Sample{} // nil and empty series are the same result
		}
	}
	return digest(struct {
		Results []core.LLCResult
		Summary core.RunSummary
	}{canon, sum})
}

// iteration is the host cost of one timed sweep.
type iteration struct {
	wall, cpu float64 // seconds
	allocMB   float64
	mallocs   float64
	gcCycles  float64
	gcPauseMS float64
}

// measure times fn and the process resources it used. It collects
// garbage first, so that every iteration starts from the same heap and
// meets the collector at the same points: without that, iterations of
// one run fall into two groups a tenth apart, by whether the previous
// one left a collection pending.
func measure(fn func()) iteration {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return iteration{
		wall: wall, cpu: cpu,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

func column(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// sweeper runs iterations of one library workload against one state and
// holds every one to the first: simulated results may not change from
// one iteration to the next.
type sweeper struct {
	rec   *record
	st    *libState
	first []core.LLCResult
	sum   core.RunSummary
	dig   string
}

// once runs one iteration as one attempted operation.
func (s *sweeper) once(opts ...core.RunOption) (iteration, bool) {
	var res []core.LLCResult
	var sum core.RunSummary
	var err error
	s.st.offWall, s.st.offCPU = 0, 0
	it := measure(func() { res, sum, err = s.st.lib.sweep(s.st, opts...) })
	it.wall -= s.st.offWall
	it.cpu -= s.st.offCPU
	if !s.rec.check(err == nil, "sweep: %v", err) {
		return it, false
	}
	d := sweepDigest(res, sum)
	if s.first == nil {
		s.first, s.sum, s.dig = res, sum, d
		return it, true
	}
	return it, s.rec.check(d == s.dig, "iteration results differ from the first iteration's (digest %.12s, first %.12s)", d, s.dig)
}

// setUp builds fresh state and runs one untimed sweep on it: the capture,
// for a warm workload, and the warm-up for all. It returns the seconds
// that took.
func (l *library) setUp(rc *runCtx) (*sweeper, float64) {
	runtime.GC()
	t0 := time.Now()
	st, err := l.newState(rc)
	if !rc.rec.check(err == nil, "set-up: %v", err) {
		return nil, 0
	}
	sw := &sweeper{rec: rc.rec, st: st}
	if _, ok := sw.once(); !ok {
		st.close()
		return nil, 0
	}
	return sw, time.Since(t0).Seconds()
}

// finish records what both passes report and runs the reference check.
func (l *library) finish(rc *runCtx, sw *sweeper) {
	rec := rc.rec
	rec.SimDigest = sw.dig
	rec.Counts["instructions"] = sw.sum.Instructions
	rec.Counts["bus_events"] = sw.sum.BusEvents
	rec.Counts["loads"] = sw.sum.Loads
	rec.Counts["stores"] = sw.sum.Stores
	rec.Counts["configs"] = uint64(len(sw.first))
	var misses uint64
	for _, r := range sw.first {
		misses += r.Stats.Misses
	}
	rec.Counts["misses_all_configs"] = misses
	sp := rc.root.StartChild("reference")
	l.reference(sw.st, rec, sw.first, sw.sum)
	sp.End()
}

func (l *library) timed(rc *runCtx) {
	rec := rc.rec
	sw, setup := l.setUp(rc)
	if sw == nil {
		return
	}
	var its []iteration
	start := time.Now()
	for len(its) < rc.size.minIters || time.Since(start).Seconds() < rc.budget() {
		it, ok := sw.once()
		if !ok {
			sw.st.close()
			return
		}
		its = append(its, it)
	}
	// The process has done what a user's does — one set-up, then sweeps —
	// so this is the peak a user sees; the further set-ups below would
	// only add their garbage to it.
	rss := peakRSSMB()

	events := float64(sw.sum.BusEvents)
	rec.set("sweep_ns_per_ref", column(its, func(it iteration) float64 { return it.wall * 1e9 / events })...)
	rec.set("cpu_ns_per_ref", column(its, func(it iteration) float64 { return it.cpu * 1e9 / events })...)
	rec.set("peak_rss_mb", rss)
	l.finish(rc, sw)
	sw.st.close()

	// setup_s is a median over several set-ups, each from scratch.
	setups := []float64{setup}
	for len(setups) < rc.size.setupReps {
		again, sec := l.setUp(rc)
		if again == nil {
			return
		}
		again.st.close()
		rec.check(again.dig == sw.dig, "a repeated set-up's sweep differs from the first's (digest %.12s, first %.12s)", again.dig, sw.dig)
		setups = append(setups, sec)
	}
	rec.set("setup_s", setups...)
}

// phaseCutter turns core.WithProgress events into phase spans under one
// iteration: a capture/replay/execute/sampling event opens that phase
// and closes the one before; the first per-configuration event opens
// the collect phase.
type phaseCutter struct {
	parent *telemetry.Span
	cur    *telemetry.Span
	name   string
}

func (p *phaseCutter) on(pr core.Progress) {
	name := pr.Phase
	if name == core.PhaseConfig {
		name = "collect"
	}
	if name == p.name {
		return
	}
	p.cur.End()
	p.cur, p.name = p.parent.StartChild(name), name
}

func (p *phaseCutter) end() { p.cur.End() }

func (l *library) traced(rc *runCtx) {
	rec := rc.rec
	sp := rc.root.StartChild("setup")
	sw, _ := l.setUp(rc)
	sp.End()
	if sw == nil {
		return
	}
	defer sw.st.close()

	// Untraced and traced iterations alternate, so the overhead is a
	// difference between neighbours and not between two runs.
	var plain, spanned []iteration
	for i := range rc.size.abPairs {
		it, ok := sw.once()
		if !ok {
			return
		}
		plain = append(plain, it)
		isp := rc.root.StartChild("iteration")
		isp.SetAttr("id", strconv.Itoa(i))
		cut := &phaseCutter{parent: isp}
		it, ok = sw.once(core.WithProgress(cut.on))
		cut.end()
		isp.End()
		if !ok {
			return
		}
		spanned = append(spanned, it)
	}
	wall := func(it iteration) float64 { return it.wall }
	sweepS := median(column(plain, wall))
	rec.set("bench.sweep_s", column(plain, wall)...)
	rec.set("bench.trace_overhead_pct", 100*(median(column(spanned, wall))/sweepS-1))
	setRuntime(rec, plain)
	l.finish(rc, sw)

	pb := newProber(rc, sw.st.bench, sw.st.p, sw.st.pc, sw.st.grid, l.engine)
	if pb == nil {
		return
	}
	pb.all()
	pb.servedProbe()
	// The probes took the better part of a minute, and this host drifts
	// by a tenth or more in that time: the sweep they are reconciled
	// with is timed on both sides of them.
	for range rc.size.abPairs {
		it, ok := sw.once()
		if !ok {
			return
		}
		plain = append(plain, it)
	}
	rec.set("core.unattributed_share", 1-l.predict(pb.c)/median(column(plain, wall)))
}

func setRuntime(rec *record, its []iteration) {
	rec.set("runtime.alloc_mb_per_sweep", column(its, func(it iteration) float64 { return it.allocMB })...)
	rec.set("runtime.mallocs_per_sweep", column(its, func(it iteration) float64 { return it.mallocs })...)
	rec.set("runtime.gc_cycles_per_sweep", column(its, func(it iteration) float64 { return it.gcCycles })...)
	rec.set("runtime.gc_pause_ms_per_sweep", column(its, func(it iteration) float64 { return it.gcPauseMS })...)
}
