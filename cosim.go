// Package cmpmem is a hardware-software co-simulation toolkit for
// studying the memory performance of parallel data-mining workloads on
// small, medium, and large-scale chip multiprocessors, reproducing
// Li et al., "Understanding the Memory Performance of Data-Mining
// Workloads on Small, Medium, and Large-Scale CMPs Using
// Hardware-Software Co-simulation" (ISPASS 2007).
//
// The toolkit couples a software model of Intel's SoftSDV full-system
// simulator in DEX (direct-execution) mode with a software model of the
// Dragonhead FPGA cache emulator over a front-side-bus abstraction, and
// ships real implementations of the paper's eight data-mining workloads
// (SNP, SVM-RFE, RSEARCH, FIMI, PLSA, MDS, SHOT, VIEWTYPE).
//
// Quick start:
//
//	results, _, err := cmpmem.LLCSweep("FIMI", cmpmem.Params{Seed: 1},
//	    cmpmem.SCMP(), cmpmem.CacheSweepConfigs(0))
//
// runs FIMI on the 8-core platform while emulating the whole Figure 4
// cache-size sweep in one execution; each LLCResult reports the misses
// per 1000 instructions of one cache size.
//
// Every exhibit of the paper has a one-call runner: Table1, Table2,
// CacheSweep (Figures 4-6), LineSweep (Figure 7), and Fig8. Each runner
// declares rows of one exhibit table and runs them; `cosim` runs the
// rows of all requested exhibits together, so every (workload,
// platform) executes once for all of them.
package cmpmem

import (
	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/metrics"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// Params controls workload sizing; see workloads.Params.
type Params = workloads.Params

// PlatformConfig describes the virtual CMP; see core.PlatformConfig.
type PlatformConfig = core.PlatformConfig

// CacheConfig describes one cache; see cache.Config.
type CacheConfig = cache.Config

// CacheStats holds cache event counters; see cache.Stats.
type CacheStats = cache.Stats

// LLCResult is one emulated LLC's outcome; see core.LLCResult.
type LLCResult = core.LLCResult

// RunSummary reports execution-side totals; see core.RunSummary.
type RunSummary = core.RunSummary

// HierResult is a timing-hierarchy outcome; see core.HierResult.
type HierResult = core.HierResult

// HierConfig describes the timing machine; see hier.Config.
type HierConfig = hier.Config

// Series is a named sweep curve; see metrics.Series.
type Series = metrics.Series

// Ref is one bus-visible memory reference; see trace.Ref.
type Ref = trace.Ref

// Snooper is a passive front-side-bus observer; see fsb.Snooper. Run
// attaches snoopers to a live execution.
type Snooper = fsb.Snooper

// Message is a bus control message (start/stop/core-id/counters); see
// fsb.Message. Snooper implementations receive these via OnMsg.
type Message = fsb.Message

// Table1Row, Table2Row, and Fig8Row mirror the paper's exhibits;
// ProjectionRow, DRAMCacheRow, and LLCOrgRow belong to the
// beyond-the-paper studies.
type (
	Table1Row     = core.Table1Row
	Table2Row     = core.Table2Row
	Fig8Row       = core.Fig8Row
	ProjectionRow = core.ProjectionRow
	DRAMCacheRow  = core.DRAMCacheRow
	LLCOrgRow     = core.LLCOrgRow
)

// DefaultScale is the harness default footprint scale (1/16 of paper).
const DefaultScale = workloads.DefaultScale

// Platform presets matching the paper's three CMP sizes.
var (
	// SCMP is the 8-core small-scale CMP.
	SCMP = core.SCMP
	// MCMP is the 16-core medium-scale CMP.
	MCMP = core.MCMP
	// LCMP is the 32-core large-scale CMP.
	LCMP = core.LCMP
)

// WorkloadNames returns the eight workload names in Table 1 order.
func WorkloadNames() []string { return registry.Names() }

// RunOption tunes a run; see core.RunOption. Every option but
// WithSampling changes wall-clock only — statistics are bit-identical
// with or without them.
type RunOption = core.RunOption

// WithParallelism bounds how many independent workload runs an exhibit
// runner executes concurrently (default GOMAXPROCS; 1 forces serial).
var WithParallelism = core.WithParallelism

// TraceStore memoizes captured bus-event streams; see tracestore.Store.
type TraceStore = tracestore.Store

// NewTraceStore builds a trace store with the given in-memory byte
// budget (0 = default 1 GiB) and optional spill directory ("" disables
// disk persistence).
var NewTraceStore = tracestore.New

// WithTraceReuse executes each (workload, params, platform, seed) tuple
// at most once and replays the memoized bus-event stream for every
// other experiment on the same tuple. Results are bit-identical to live
// execution.
var WithTraceReuse = core.WithTraceReuse

// TraceStoreStats is a point-in-time trace store snapshot: hits, disk
// hits, misses (= actual executions), single-flight waits, evictions,
// and resident bytes. Obtain one with (*TraceStore).Stats.
type TraceStoreStats = tracestore.Stats

// Progress is one observation from a run's progress hook; see
// WithProgress and the Phase* constants.
type Progress = core.Progress

// Progress phases reported through WithProgress.
const (
	PhaseCapture = core.PhaseCapture
	PhaseReplay  = core.PhaseReplay
	PhaseExecute = core.PhaseExecute
	PhaseConfig  = core.PhaseConfig
	PhaseSample  = core.PhaseSample
)

// WithProgress registers a hook observing a run's phase transitions
// (capture, replay, live execute) and per-config sweep completions.
// The hook runs synchronously on the run's goroutine; keep it cheap.
var WithProgress = core.WithProgress

// Run executes a workload on the platform with optional snoopers; most
// callers want LLCSweep or RunHier instead.
var Run = core.Run

// LLCSweep runs one workload while emulating every LLC configuration.
var LLCSweep = core.LLCSweep

// SamplingMode selects the sweep accuracy tier: SamplingOff (exact,
// the default) or SamplingFast (replay only representative trace
// intervals and extrapolate full-trace statistics with confidence
// intervals). Unlike every other run option, sampling CHANGES results —
// each LLCResult carries a SamplingEstimate with its miss-count
// confidence interval, graded against the exact oracle by
// `cosim -verify`.
type SamplingMode = core.SamplingMode

// Sampling modes; see core.SamplingMode.
const (
	SamplingOff  = core.SamplingOff
	SamplingFast = core.SamplingFast
)

// SamplingEstimate records how much of the trace a sampled sweep
// replayed and the miss-count confidence interval; see
// core.SamplingEstimate.
type SamplingEstimate = core.SamplingEstimate

// ParseSampling maps "off"|"fast" to a SamplingMode.
var ParseSampling = core.ParseSampling

// WithSampling selects the accuracy tier of LLCSweep and CombinedSweep,
// the only runners it acts on: RunHier and the exhibit runners always
// answer exactly.
var WithSampling = core.WithSampling

// CombinedSweep executes several config grids of one workload as a
// single planned sweep: shared geometries are deduplicated across
// grids and every oracle-answerable config is served by one analytic
// pass; results mirror the grids exactly and match LLCSweep's
// emulators bit for bit.
var CombinedSweep = core.CombinedSweep

// RunHier times every given per-core L1/L2 hierarchy on one execution.
var RunHier = core.RunHier

// TraceCapture streams a workload's in-window references to a callback.
var TraceCapture = core.TraceCapture

// CacheSweepConfigs returns the Figure 4-6 LLC sweep at the given scale
// (0 = DefaultScale).
var CacheSweepConfigs = core.CacheSweepConfigs

// LineSweepConfigs returns the Figure 7 line-size sweep.
var LineSweepConfigs = core.LineSweepConfigs

// PentiumIV and Xeon16 are the Table 2 and Figure 8 machine models.
var (
	PentiumIV = hier.PentiumIV
	Xeon16    = hier.Xeon16
)

// Exhibit runners. Each takes the workload selection first (nil = all
// eight, in Table 1 order); only the selected workloads execute.
var (
	// Table1 lists input parameters and dataset sizes.
	Table1 = core.Table1
	// Table2 profiles the workloads single-threaded (IPC, mix, MPKI).
	Table2 = core.Table2
	// CacheSweep produces Figures 4-6 (pass cores = 8, 16, 32).
	CacheSweep = core.CacheSweep
	// LineSweep produces Figure 7.
	LineSweep = core.LineSweep
	// Fig8 measures hardware-prefetching gains, serial and 16-thread.
	Fig8 = core.Fig8
)

// Beyond-the-paper studies (see `cosim proj128|dramcache|llcorg|phases`);
// the same selection-first signature.
var (
	// Projection128 measures Section 4.3's 128-core working sets
	// directly instead of extrapolating them.
	Projection128 = core.Projection128
	// DRAMCacheStudy quantifies the conclusions' DRAM-LLC proposal.
	DRAMCacheStudy = core.DRAMCacheStudy
	// SharedVsPrivate compares LLC organizations at equal capacity.
	SharedVsPrivate = core.SharedVsPrivate
)

// PaperCacheSizesMB is the Figure 4-6 x-axis in paper units.
var PaperCacheSizesMB = core.PaperCacheSizesMB

// PaperLineSizes is the Figure 7 x-axis in bytes.
var PaperLineSizes = core.PaperLineSizes

// Telemetry substrate. The simulator is observable end to end: every
// package registers counters into a shared registry, each experiment
// run emits a span tree plus a machine-readable manifest, and the
// sweeps print live progress. All of it is optional and free when off.

// TelemetryRegistry is the lock-free counter/gauge registry;
// see telemetry.Registry. A nil registry is valid everywhere and costs
// one branch per event.
type TelemetryRegistry = telemetry.Registry

// TelemetrySink bundles a registry, a manifest writer, and a progress
// printer into one handle the runners consume; see telemetry.Sink.
type TelemetrySink = telemetry.Sink

// RunManifest is the machine-readable record of one experiment run;
// see telemetry.Manifest.
type RunManifest = telemetry.Manifest

// NewTelemetrySink builds a sink from its (individually optional)
// parts; see telemetry.NewSink.
var NewTelemetrySink = telemetry.NewSink

// NewTelemetryRegistry builds an empty registry to hand to
// NewTelemetrySink; nothing looks a registry up by itself.
var NewTelemetryRegistry = telemetry.NewRegistry

// WithTelemetry instruments the runs made with this option set:
// counters, span trees, run manifests, and progress lines. Statistics
// are bit-identical with or without it.
var WithTelemetry = core.WithTelemetry
