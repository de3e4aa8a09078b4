// Execute-once / replay-many: the memoized trace substrate.
//
// The paper's Dragonhead board snoops one FSB stream and feeds it to a
// reprogrammable cache configuration; re-running an experiment against
// a different configuration does not re-run the software. The replay
// substrate restores that property across experiment invocations: a
// named run's complete bus-event stream (memory transactions plus the
// control-message protocol, in exact delivery order) is captured once
// per (workload, params, platform, seed) key and replayed through any
// snooper set afterwards. Every published number — cache.Stats, CB
// Samples, MPKI, the run summary — depends only on that stream and the
// cache algorithm, so replayed results are bit-identical to live
// execution.

package core

import (
	"cmpmem/internal/fsb"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
)

// busRecorder captures the complete bus-event stream straight into the
// compact v2 codec (the raw []Ref form of a full run never
// materializes, keeping capture allocation-light and the memoized
// footprint ~4x smaller). Control messages are stored as their
// reserved-window transaction encoding (exactly how the paper's
// platform carries them on the physical FSB), so one flat stream holds
// everything and replay needs no side channel.
type busRecorder struct {
	rec *tracestore.Recorder
}

// OnRef implements fsb.Snooper.
func (b *busRecorder) OnRef(r trace.Ref) { b.rec.Add(r) }

// OnMsg implements fsb.Snooper.
func (b *busRecorder) OnMsg(m fsb.Message) { b.rec.Add(fsb.EncodeMessage(m)) }

// TraceKey is the identity a run's capture is stored under in a
// tracestore.Store, normalized so equivalent configurations (zero vs
// explicit defaults) share one captured stream.
func TraceKey(name string, p workloads.Params, pc PlatformConfig) tracestore.Key {
	p = p.WithDefaults()
	threads := pc.Threads
	if threads == 0 {
		threads = 1
	}
	quantum := pc.Quantum
	if quantum == 0 {
		quantum = softsdv.DefaultQuantum
	}
	return tracestore.Key{
		Workload: name,
		Seed:     p.Seed,
		Scale:    p.Scale,
		Threads:  threads,
		Quantum:  quantum,
		Noise:    pc.HostNoiseRefs,
		PlatSeed: pc.Seed,
	}
}

// captureTrace executes the named workload once with only the recorder
// on the bus (synchronous delivery: capture is a single consumer, so
// fan-out would only add handoffs) and returns the memoizable stream.
// Only the caller's telemetry sink and span carry over into the capture
// run; its store and batch options must not (capture IS the store fill,
// and the recorder is single-consumer).
func captureTrace(name string, p workloads.Params, pc PlatformConfig, ro runOpts) (*tracestore.Trace, error) {
	rec := &busRecorder{rec: tracestore.NewRecorder()}
	sum, err := runNamedLive(name, p, pc, runOpts{tel: ro.tel, span: ro.span}, []fsb.Snooper{rec})
	if err != nil {
		return nil, err
	}
	return rec.rec.Finish(tracestore.Summary{
		Workload:     sum.Workload,
		Threads:      sum.Threads,
		Instructions: sum.Instructions,
		Loads:        sum.Loads,
		Stores:       sum.Stores,
		BusEvents:    sum.BusEvents,
	})
}

// runReplayed serves one experiment run from the memoized store:
// execute on the first request for the key, replay on every other.
func runReplayed(name string, p workloads.Params, pc PlatformConfig, ro runOpts, snoopers []fsb.Snooper) (RunSummary, error) {
	// The store span covers the whole single-flight interaction — an
	// in-memory hit, a blocking wait behind another caller's capture, a
	// disk revival, or a fresh execution (which nests the capture span) —
	// and records which of those it was, so a slow request's tree says
	// where the time went, not just that Do took long.
	lookup := ro.span.StartChild("store")
	tr, outcome, err := ro.store.DoOutcome(TraceKey(name, p, pc), func() (*tracestore.Trace, error) {
		ro.step(Progress{Phase: PhaseCapture})
		cro := ro
		cro.span = lookup.StartChild("capture")
		defer cro.span.End()
		return captureTrace(name, p, pc, cro)
	})
	lookup.SetAttr("outcome", outcome.String())
	lookup.End()
	if err != nil {
		return RunSummary{}, err
	}
	ro.step(Progress{Phase: PhaseReplay})
	replay := ro.span.StartChild("replay")
	err = replayTrace(tr, ro, snoopers)
	replay.End()
	if err != nil {
		return RunSummary{}, err
	}
	return RunSummary{
		Workload:     tr.Summary.Workload,
		Threads:      tr.Summary.Threads,
		Instructions: tr.Summary.Instructions,
		Loads:        tr.Summary.Loads,
		Stores:       tr.Summary.Stores,
		BusEvents:    tr.Summary.BusEvents,
	}, nil
}

// ReplayBus drives any snooper set from a captured bus-event stream, as
// if the original execution were happening live: message-window
// transactions are decoded back into control messages, everything else
// is delivered as a memory transaction, in captured order. The replay
// inner loop allocates nothing per reference, and the options compose
// with WithBusBatch — a batched replay fans the stream out across
// per-snooper workers exactly like a live batched run.
//
// It returns the number of bus events delivered.
func ReplayBus(stream []trace.Ref, snoopers []fsb.Snooper, opts ...RunOption) (uint64, error) {
	ro := applyOpts(opts)
	if err := replayStream(stream, ro, snoopers); err != nil {
		return 0, err
	}
	return uint64(len(stream)), nil
}

// replayStream drives the snoopers from an in-memory []Ref slice
// (public ReplayBus entry point).
func replayStream(stream []trace.Ref, ro runOpts, snoopers []fsb.Snooper) error {
	bus := ro.newBus()
	for _, s := range snoopers {
		bus.Attach(s)
	}
	p := trace.NewPlayer(stream)
	for r, ok := p.Next(); ok; r, ok = p.Next() {
		dispatch(bus, r)
	}
	return bus.Close()
}

// replayBatch is the decode granularity of the replay engine: 64
// records per NextBatch call keeps the v2 cursor state in registers
// across a whole batch while the working buffer (1 KB) stays resident
// in L1.
const replayBatch = 64

// replayTrace is the zero-alloc replay engine behind every memoized
// sweep: it decodes the stored v2 stream 64 records at a time
// (StreamPlayer.NextBatch) and feeds the bus, never materializing the
// stream as a slice.
func replayTrace(tr *tracestore.Trace, ro runOpts, snoopers []fsb.Snooper) error {
	p, err := tr.Player()
	if err != nil {
		return err
	}
	bus := ro.newBus()
	for _, s := range snoopers {
		bus.Attach(s)
	}
	var buf [replayBatch]trace.Ref
	for {
		n := p.NextBatch(buf[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			dispatch(bus, buf[i])
		}
	}
	if err := p.Err(); err != nil {
		bus.Close()
		return err
	}
	return bus.Close()
}

// dispatch delivers one captured event as if the original execution
// were happening live: message-window transactions are decoded back
// into control messages, everything else is a memory transaction.
func dispatch(bus *fsb.Bus, r trace.Ref) {
	if m, isMsg := fsb.DecodeMessage(r); isMsg {
		bus.Msg(m)
	} else {
		bus.Ref(r)
	}
}
