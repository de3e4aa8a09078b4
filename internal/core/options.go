// Run options: the concurrency and reuse knobs of the experiment
// runners.
//
// Two axes of parallelism mirror the paper's platform:
//
//   - Inside ONE run the bus fans each batch of events out over
//     min(GOMAXPROCS, attached snoopers) workers while the producer
//     makes the next one, like the Dragonhead FPGAs passively snooping
//     the FSB in parallel with SoftSDV; on one processor every batch
//     stays on the producer's goroutine (fsb.Bus). Nothing selects
//     this, and per-snooper delivery order is total, so results are
//     bit-identical.
//   - Experiment parallelism (WithParallelism) runs INDEPENDENT
//     (workload, params, platform) executions on a bounded
//     worker pool, GOMAXPROCS wide by default, like racking up several
//     co-simulation platforms.
//
// A third axis removes redundant work entirely: WithTraceReuse memoizes
// each workload's captured bus-event stream in a tracestore.Store, so
// any number of experiments on the same (workload, params, platform,
// seed) tuple execute the guest simulation once and replay the stream
// everywhere else — exactly equivalent, because every published number
// depends only on the event stream and the cache algorithm.

package core

import (
	"runtime"

	"cmpmem/internal/fsb"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
)

// RunOption configures the concurrency of an experiment runner. The
// zero set of options reproduces fully deterministic results; options
// only change wall-clock, never statistics.
type RunOption func(*runOpts)

// Progress phases, in the vocabulary a serving layer exposes to its
// clients: a run is captured once (PhaseCapture, only when the trace
// store has no stream for the key), replayed against the attached
// snoopers (PhaseReplay), or executed live without a store
// (PhaseExecute); each answered configuration then reports its
// completion (PhaseConfig).
const (
	PhaseCapture = "capture"
	PhaseReplay  = "replay"
	PhaseExecute = "execute"
	PhaseConfig  = "config"
	// PhaseSample is the fast tier's fingerprint + cluster pass
	// (WithSampling); the subsequent representative replay reports
	// PhaseReplay like any other replay.
	PhaseSample = "sampling"
)

// Progress is one job-visible phase transition of a run, delivered to
// the WithProgress hook. For PhaseConfig, Config names the completed
// configuration and Done/Total count the sweep's progress; the other
// phases carry only the phase itself.
type Progress struct {
	Phase  string
	Config string
	Done   int
	Total  int
}

// WithProgress registers a hook that observes the run's phase
// transitions: capture vs replay (so a caller can distinguish paying
// for an execution from reusing a memoized stream), live execution,
// and per-configuration completion during result collection. The hook
// is called synchronously from the run's own goroutine; it must not
// block, and a runner on the WithParallelism pool (RunExhibits,
// VerifyAll) calls it from several runs at once. Observation only —
// statistics are bit-identical with or without it.
func WithProgress(fn func(Progress)) RunOption {
	return func(o *runOpts) { o.progress = fn }
}

// runOpts is the resolved option set.
type runOpts struct {
	// jobs bounds the worker pool for independent runs (0 = GOMAXPROCS).
	jobs int
	// batch is the bus batch size in events (0 = fsb.DefaultBatch).
	batch int
	// store, when non-nil, memoizes captured event streams: named runs
	// execute once per key and replay everywhere else.
	store *tracestore.Store
	// tel, when non-nil, instruments the run: counters register into
	// the sink's registry, each experiment emits a span tree and a run
	// manifest, and sweeps print live progress lines. nil is the free
	// path (one branch per check site).
	tel *telemetry.Sink
	// span is the parent for this run's phase spans (set internally by
	// the experiment runners, nil when telemetry is off).
	span *telemetry.Span
	// parent, when non-nil, roots the runner's span tree under a
	// caller-owned span (a cosimd request trace) instead of opening a
	// fresh root on the telemetry sink. See WithParentSpan.
	parent *telemetry.Span
	// engine selects the sweep execution engine: applyOpts resolves it
	// to EngineAuto, LLCSweep to EngineEmulate (see WithEngine).
	engine Engine
	// shards selects intra-run bank sharding for the dragonhead
	// emulators: 0 = serial (the default), -1 = auto (resolved per
	// emulator by shardCount), >= 1 explicit.
	shards int
	// sampling selects the accuracy tier (see WithSampling). Unlike
	// every other option it changes results: sweeps return extrapolated
	// estimates with confidence intervals instead of exact statistics.
	sampling SamplingMode
	// progress, when non-nil, observes phase transitions (see
	// WithProgress). nil is the free path.
	progress func(Progress)
}

// step delivers one progress event to the hook (nil-safe).
func (o runOpts) step(pr Progress) {
	if o.progress != nil {
		o.progress(pr)
	}
}

// WithParallelism bounds how many independent workload runs an exhibit
// runner may execute concurrently. n <= 0 restores the default
// (GOMAXPROCS); n == 1 forces serial execution.
func WithParallelism(n int) RunOption {
	return func(o *runOpts) { o.jobs = n }
}

// WithBusBatch sizes the batches the bus delivers inside each run, in
// events (n <= 0 or above fsb.DefaultBatch selects fsb.DefaultBatch).
// Whether batches fan out over worker goroutines is the bus's own
// decision (see fsb.Bus); statistics are bit-identical at every size.
// No user surface sets it; it stays only because bench's fsb probes do.
func WithBusBatch(n int) RunOption {
	return func(o *runOpts) { o.batch = n }
}

// WithTraceReuse memoizes each named workload execution's bus-event
// stream in s and replays it for every later run with the same
// (workload, params, platform, seed) key. Replay is bit-identical to
// live execution — per-snooper delivery order is the captured order —
// so only wall-clock changes. A nil s is no store: runs execute live.
func WithTraceReuse(s *tracestore.Store) RunOption {
	return func(o *runOpts) { o.store = s }
}

// WithTelemetry instruments every run made with this option set: the
// simulator's packages (softsdv, fsb, dragonhead) register their
// counters into the sink's registry (a trace store's go wherever its
// owner's Store.Instrument points them), each experiment emits a
// span tree plus a machine-readable run manifest, and the exhibit
// runners print live progress lines. Telemetry observes; statistics
// are bit-identical with or without it.
func WithTelemetry(s *telemetry.Sink) RunOption {
	return func(o *runOpts) { o.tel = s }
}

// WithParentSpan roots the run's span tree under s: the experiment
// runner's top span (plansweep/… or sampledsweep/…) becomes a child
// of s rather than a fresh root, so a cosimd request's root span, which
// its job holds from admission on, contains the full execution tree.
// Works with or without WithTelemetry — spans record timing even
// when no sink is attached; a nil s is the free path.
func WithParentSpan(s *telemetry.Span) RunOption {
	return func(o *runOpts) { o.parent = s }
}

// rootSpan opens the runner's top-level span: a child of the propagated
// parent when one was supplied, else a fresh root on the sink (nil —
// free — when telemetry is off).
func (o runOpts) rootSpan(name string) *telemetry.Span {
	if o.parent != nil {
		return o.parent.StartChild(name)
	}
	return o.tel.StartSpan(name)
}

// WithBankShards spreads each Dragonhead emulator's bank lookups
// across n worker goroutines inside one run, partitioned by the same
// address-interleave bits that select the CC bank. Results are
// bit-identical to serial emulation — sharding is a wall-clock knob,
// like the other options. n == 0 selects auto (one shard per available
// CPU, capped at the bank count and rounded down to a power of two);
// n == 1 forces serial; larger values are clamped to the emulator's
// bank count. The private per-core organization always runs serial (it
// routes by core ID, not address). It has never been faster than serial
// and no user surface sets it; it stays only because bench's
// dragonhead.sharded_speedup probe does.
func WithBankShards(n int) RunOption {
	return func(o *runOpts) {
		if n <= 0 {
			n = -1 // auto
		}
		o.shards = n
	}
}

// shardCount resolves the effective shard count for an emulator with
// the given bank count (dragonhead.New clamps again defensively).
func (o runOpts) shardCount(banks int) int {
	n := o.shards
	if n == 0 {
		return 1
	}
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > banks {
		n = banks
	}
	for n&(n-1) != 0 {
		n &= n - 1 // round down to a power of two
	}
	if n < 1 {
		n = 1
	}
	return n
}

// applyOpts folds an option list into the resolved set.
func applyOpts(opts []RunOption) runOpts {
	o := runOpts{engine: EngineAuto}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// newBus builds the bus this option set calls for.
func (o runOpts) newBus() *fsb.Bus {
	b := fsb.NewBatchedBus(o.batch)
	b.Instrument(o.tel.Registry())
	b.TraceSpan(o.span)
	return b
}
