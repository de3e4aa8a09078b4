// Package core is the hardware-software co-simulation orchestrator —
// the paper's primary contribution. It wires the SoftSDV DEX execution
// engine to one or more Dragonhead cache emulators (and optionally to
// the timing hierarchy) over a shared front-side bus, runs a workload to
// completion, and synchronizes the two time domains through the
// instructions-retired and cycles-completed messages.
//
// Because the software bus broadcasts to every attached snooper, a
// single workload execution can drive an arbitrary number of cache
// configurations simultaneously — the whole cache-size sweep of
// Figure 4 costs one run per workload. The exhibits are rows of one
// table (RunExhibits) for the same reason: every exhibit on a platform
// at the same params rides one execution per workload, so Table 2
// through Figure 8 cost four runs per workload, one per platform.
package core

import (
	"fmt"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// PlatformConfig describes the simulated CMP platform.
type PlatformConfig struct {
	// Threads is the virtual core count (8 = SCMP, 16 = MCMP,
	// 32 = LCMP).
	Threads int
	// Quantum is the DEX slice in instructions (0 = default).
	Quantum uint64
	// HostNoiseRefs injects host/simulator bus noise between slices
	// (exercises the start/stop window; excluded from measurements).
	HostNoiseRefs int
	// Seed drives the platform's noise generator.
	Seed int64
}

// SCMP, MCMP, and LCMP are the paper's three platform sizes.
func SCMP() PlatformConfig { return PlatformConfig{Threads: 8} }

// MCMP is the 16-core platform.
func MCMP() PlatformConfig { return PlatformConfig{Threads: 16} }

// LCMP is the 32-core platform.
func LCMP() PlatformConfig { return PlatformConfig{Threads: 32} }

// LLCResult is the outcome of one emulated LLC configuration.
type LLCResult struct {
	LLC          cache.Config
	Stats        cache.Stats
	Instructions uint64
	MPKI         float64
	Samples      []dragonhead.Sample
	Ignored      uint64
	// Sampling is set only by sampled sweeps (WithSampling): Stats are
	// then weighted extrapolations from representative intervals and
	// this record carries the replay fraction and the miss-count
	// confidence interval. Sampled sweeps emit no CB sample series —
	// time-domain samples cannot be stitched from disjoint windows.
	Sampling *SamplingEstimate `json:"Sampling,omitempty"`
}

// RunSummary captures execution-side totals of a run. It is the
// trace store's Summary: a replayed run returns the captured totals
// as they were recorded.
type RunSummary = tracestore.Summary

// Run executes the named workload once on the platform, with the given
// extra snoopers attached to the bus, and returns the execution summary.
// It is the common core of every experiment runner.
func Run(name string, p workloads.Params, pc PlatformConfig, snoopers ...fsb.Snooper) (RunSummary, error) {
	return runNamed(name, p, pc, runOpts{}, snoopers)
}

// runNamed is Run with explicit concurrency and reuse options: the
// source step of every exact run. With a trace store configured the
// snoopers are fed from the memoized bus-event stream or, on a miss,
// by the execution that captures it; otherwise the guest executes live.
func runNamed(name string, p workloads.Params, pc PlatformConfig, ro runOpts, snoopers []fsb.Snooper) (RunSummary, error) {
	if ro.store == nil {
		return runNamedLive(name, p, pc, ro, snoopers)
	}
	tr, fed, err := ro.openTrace(name, p, pc, snoopers)
	if err != nil {
		return RunSummary{}, err
	}
	if fed {
		return tr.Summary, nil
	}
	ro.step(Progress{Phase: PhaseReplay})
	replay := ro.span.StartChild("replay")
	defer replay.End()
	if err := replayTrace(tr, ro, snoopers); err != nil {
		return RunSummary{}, err
	}
	return tr.Summary, nil
}

// runNamedLive always executes the guest simulation, and owns the bus
// lifecycle of the execution: build, attach, run, then Close — which
// flushes the last batch, joins the delivery workers of a fanned bus,
// and finalizes the snoopers so their counters are sealed before any
// caller reads them. The progress hook sees
// PhaseExecute only on direct live runs: capture runs strip the hook
// (openTrace already reported PhaseCapture for them).
func runNamedLive(name string, p workloads.Params, pc PlatformConfig, ro runOpts, snoopers []fsb.Snooper) (RunSummary, error) {
	ro.step(Progress{Phase: PhaseExecute})
	w, err := registry.New(name, p)
	if err != nil {
		return RunSummary{}, err
	}
	if pc.Threads == 0 {
		pc.Threads = 1
	}
	bus := ro.newBus()
	// Close (idempotent) on every path, a panic included: unjoined
	// delivery workers would leak, and later stats reads race.
	defer bus.Close()
	for _, s := range snoopers {
		bus.Attach(s)
	}
	sched, err := softsdv.NewScheduler(softsdv.Config{
		Cores:         pc.Threads,
		Quantum:       pc.Quantum,
		HostNoiseRefs: pc.HostNoiseRefs,
		Seed:          pc.Seed,
		Telemetry:     ro.tel.Registry(),
	}, bus)
	if err != nil {
		return RunSummary{}, err
	}
	build := ro.span.StartChild("build")
	sp := mem.NewSpace()
	prog, err := w.Build(sp, sched, pc.Threads)
	build.End()
	if err != nil {
		return RunSummary{}, fmt.Errorf("core: building %s: %w", w.Name(), err)
	}
	// "execute" covers the DEX capture plus bus fan-out and snooping;
	// "drain" is the bus's flush-and-join tail.
	exec := ro.span.StartChild("execute")
	runErr := sched.Run(prog)
	exec.End()
	drain := ro.span.StartChild("drain")
	closeErr := bus.Close()
	drain.End()
	if runErr != nil {
		return RunSummary{}, fmt.Errorf("core: running %s: %w", w.Name(), runErr)
	}
	if closeErr != nil {
		return RunSummary{}, fmt.Errorf("core: running %s: %w", w.Name(), closeErr)
	}
	loads, stores := sched.MemoryInstructions()
	return RunSummary{
		Workload:     w.Name(),
		Threads:      pc.Threads,
		Instructions: sched.Instructions(),
		Loads:        loads,
		Stores:       stores,
		BusEvents:    bus.Events(),
	}, nil
}

// TraceCapture forwards every in-window memory transaction of the named
// run to fn (message transactions excluded): the guest executes live,
// or with WithTraceReuse the stream is the store's capture.
func TraceCapture(name string, p workloads.Params, pc PlatformConfig, fn func(trace.Ref), opts ...RunOption) (RunSummary, error) {
	return runNamed(name, p, pc, applyOpts(opts), []fsb.Snooper{RefSnooper(fn)})
}

// RefSnooper is TraceCapture's snooper: it forwards every in-window
// memory transaction to fn, so a consumer of plain references can be an
// Exhibit's snooper and share its execution with every other row on the
// platform (`cosim traceinfo`'s profile is such a row).
func RefSnooper(fn func(trace.Ref)) fsb.Snooper { return &captureSnooper{fn: fn} }

// captureSnooper honors the start/stop window through the shared fsb.AF.
type captureSnooper struct {
	fn func(trace.Ref)
	af fsb.AF
}

// OnRef implements fsb.Snooper.
func (c *captureSnooper) OnRef(r trace.Ref) {
	if c.af.Ref(r) {
		c.fn(r)
	}
}

// OnMsg implements fsb.Snooper.
func (c *captureSnooper) OnMsg(m fsb.Message) { c.af.Msg(m) }
