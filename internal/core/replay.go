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
	"fmt"
	"strconv"

	"cmpmem/internal/fsb"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
)

// busRecorder captures the complete bus-event stream straight into the
// compact trace codec (the raw []Ref form of a full run never
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

// OnBatch implements fsb.BatchSnooper: the batch is already in the
// stored encoding.
func (b *busRecorder) OnBatch(batch []trace.Ref) { b.rec.AddBatch(batch) }

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

// openTrace is the source step of every stored run, exact or sampled,
// and the only tracestore lookup in core: the run's stream comes out of
// ro.store, executing the guest on the first request for the key with
// the recorder beside the caller's snoopers — the paper's FPGAs consumed
// the FSB while SoftSDV ran, not after. fed reports that the snoopers
// saw that execution and must not be replayed.
func (ro runOpts) openTrace(name string, p workloads.Params, pc PlatformConfig, snoopers []fsb.Snooper) (tr *tracestore.Trace, fed bool, err error) {
	// The store span covers the whole single-flight interaction — an
	// in-memory hit, a blocking wait behind another caller's capture, a
	// disk revival, or a fresh execution (which nests the capture span) —
	// and records which of those it was, so a slow request's tree says
	// where the time went, not just that DoOutcome took long.
	lookup := ro.span.StartChild("store")
	defer lookup.End()
	tr, outcome, err := ro.store.DoOutcome(TraceKey(name, p, pc), func() (*tracestore.Trace, error) {
		// The run takes the caller's sink and batch size but not its
		// store: capture IS the store fill.
		ro.step(Progress{Phase: PhaseCapture})
		capture := lookup.StartChild("capture")
		defer capture.End()
		capture.SetAttr("answerers", strconv.Itoa(len(snoopers)))
		rec := &busRecorder{rec: tracestore.NewRecorder()}
		sum, err := runNamedLive(name, p, pc, runOpts{tel: ro.tel, span: capture, batch: ro.batch},
			append([]fsb.Snooper{rec}, snoopers...))
		if err != nil {
			return nil, err
		}
		return rec.rec.Finish(sum)
	})
	lookup.SetAttr("outcome", outcome.String())
	return tr, err == nil && outcome == tracestore.OutcomeMiss, err
}

// replayTrace is the zero-alloc replay engine behind every memoized
// sweep: it decodes the stored stream one bus batch at a time
// (StreamPlayer.NextBatch) and hands each to the bus as it is —
// message transactions included — never materializing the stream. A
// stream that decodes to other than its summary's event count fails.
func replayTrace(tr *tracestore.Trace, ro runOpts, snoopers []fsb.Snooper) error {
	p, err := tr.Player()
	if err != nil {
		return err
	}
	bus := ro.newBus()
	defer bus.Close() // idempotent: joins the delivery workers if a snooper panics
	for _, s := range snoopers {
		bus.Attach(s)
	}
	buf := make([]trace.Ref, fsb.DefaultBatch)
	for n := p.NextBatch(buf); n > 0; n = p.NextBatch(buf) {
		bus.Refs(buf[:n])
	}
	if err := p.Err(); err != nil {
		return err
	}
	if n := bus.Events(); n != tr.Summary.BusEvents {
		return fmt.Errorf("core: replay decoded %d bus events, the trace's summary records %d", n, tr.Summary.BusEvents)
	}
	return bus.Close()
}
