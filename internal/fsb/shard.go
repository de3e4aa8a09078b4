// Sharded delivery: an address-partitioned SPSC fan-out for intra-run
// parallelism. Where the Bus broadcasts the full event stream to every
// snooper (inter-experiment parallelism: N configs, one
// stream), the Sharder routes each event to exactly one of N consumers
// by a key the producer derives from the address — bank-interleave bits
// for the Dragonhead CC banks. Each consumer owns a disjoint address
// partition, so the shards proceed independently with no locks and no
// cross-shard ordering; per-shard delivery order is exactly producer
// order, which is what makes sharded results bit-identical to serial
// (the bank-neutrality invariant machine-checked by
// verify.BankPartition).
package fsb

import (
	"fmt"
	"strconv"
	"time"

	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// Event is the unit the sharder queues: either a memory reference or a
// control message (Msg != nil).
type Event struct {
	Ref trace.Ref
	Msg *Message
}

// busWorker drains one shard's SPSC batch channel.
type busWorker struct {
	s    Snooper
	ch   chan []Event
	done chan struct{}
	// panicked is written only by the worker goroutine and read only
	// after done is closed.
	panicked any
	// timed, when set before the worker starts, accumulates per-batch
	// delivery wall time into busyNS (two clock reads per batch — far
	// off the per-event path). Same ownership rule as panicked.
	timed  bool
	busyNS uint64
}

// run is the worker loop: deliver each batch in order to one consumer.
// A panicking consumer poisons the worker, which then keeps draining
// (without delivering) so the producer is never blocked by a corpse;
// the panic value resurfaces from Close.
func (w *busWorker) run() {
	defer close(w.done)
	for batch := range w.ch {
		if w.panicked != nil {
			continue
		}
		w.deliver(batch)
	}
}

func (w *busWorker) deliver(batch []Event) {
	defer func() {
		if r := recover(); r != nil {
			w.panicked = r
		}
	}()
	if w.timed {
		start := time.Now()
		defer func() { w.busyNS += uint64(time.Since(start)) }()
	}
	for _, ev := range batch {
		if ev.Msg != nil {
			w.s.OnMsg(*ev.Msg)
		} else {
			w.s.OnRef(ev.Ref)
		}
	}
}

// Sharder fans events out to per-shard workers over bounded SPSC batch
// rings: one chan []Event of depth batchDepth per shard, batches shared read-only with the worker, the
// producer blocking only when a shard falls batchDepth batches behind.
//
// The producer side (Ref, Broadcast, Close) must stay on one goroutine,
// and consumer state may only be read after Close has returned.
//
// No user surface selects sharding (it has never beaten serial); the
// Sharder stays because core.WithBankShards and bench's probes use it.
type Sharder struct {
	workers   []*busWorker
	pending   [][]Event
	batchSize int
	counts    []uint64 // events routed per shard (producer-side)
	nrefs     uint64   // refs routed (each exactly once)
	msgs      uint64   // broadcasts issued
	closed    bool

	tel  *shardTelemetry
	span *telemetry.Span
}

// shardTelemetry holds the sharder's registered metrics.
type shardTelemetry struct {
	events  *telemetry.Counter // <prefix>_events_total: refs routed + broadcasts fanned out
	refs    *telemetry.Counter // <prefix>_refs_total: refs routed (each exactly once)
	batches *telemetry.Counter // <prefix>_batches_total: batches published
}

// NewSharder returns a sharder delivering to one worker per consumer.
// batchSize <= 0 selects DefaultBatch.
func NewSharder(consumers []Snooper, batchSize int) *Sharder {
	if len(consumers) == 0 {
		panic("fsb: NewSharder with no consumers")
	}
	if batchSize <= 0 {
		batchSize = DefaultBatch
	}
	s := &Sharder{
		batchSize: batchSize,
		pending:   make([][]Event, len(consumers)),
		counts:    make([]uint64, len(consumers)),
	}
	for i, c := range consumers {
		s.pending[i] = make([]Event, 0, batchSize)
		w := &busWorker{s: c, ch: make(chan []Event, batchDepth), done: make(chan struct{})}
		s.workers = append(s.workers, w)
		go w.run()
	}
	return s
}

// Instrument registers the sharder's metrics into r under the given
// prefix (nil r disables). Call before the first event. As with the
// bus, totals push at batch/close granularity so the per-event hot path
// carries no atomics.
func (s *Sharder) Instrument(r *telemetry.Registry, prefix string) {
	if r == nil {
		return
	}
	s.tel = &shardTelemetry{
		events:  r.Counter(prefix + "_events_total"),
		refs:    r.Counter(prefix + "_refs_total"),
		batches: r.Counter(prefix + "_batches_total"),
	}
}

// TraceSpan attaches parent as the span under which Close records the
// fan-out's measured shard busy times: a "shards" group over one
// "shard<i>" span per worker (see traceWorkers). Like Instrument, call
// before the first event: the timed flag reaches each worker through
// its batch channel's happens-before edge. Nil parent disables (the
// free path). Timing costs two clock reads per delivered batch, never
// per event.
func (s *Sharder) TraceSpan(parent *telemetry.Span) {
	if parent == nil {
		return
	}
	s.span = parent
	for _, w := range s.workers {
		w.timed = true
	}
}

// Shards returns the number of consumers.
func (s *Sharder) Shards() int { return len(s.workers) }

// Ref routes one memory transaction to the given shard.
func (s *Sharder) Ref(shard int, r trace.Ref) {
	if s.closed {
		panic("fsb: event published after Sharder.Close")
	}
	s.counts[shard]++
	s.nrefs++
	b := append(s.pending[shard], Event{Ref: r})
	if len(b) >= s.batchSize {
		s.publish(shard, b)
		return
	}
	s.pending[shard] = b
}

// Broadcast delivers one control message to every shard, ordered after
// all previously routed refs and before all later ones on each shard —
// the property the per-shard sample replicas rely on.
func (s *Sharder) Broadcast(m Message) {
	if s.closed {
		panic("fsb: event published after Sharder.Close")
	}
	s.msgs++
	// One shared Message per broadcast: workers only read it.
	msg := &m
	for i := range s.pending {
		s.counts[i]++
		b := append(s.pending[i], Event{Msg: msg})
		if len(b) >= s.batchSize {
			s.publish(i, b)
			continue
		}
		s.pending[i] = b
	}
}

// publish hands a full batch to one shard's worker. The slice is
// shared: the worker only reads it, the producer never touches it
// again.
func (s *Sharder) publish(shard int, batch []Event) {
	if len(batch) == 0 {
		return
	}
	if s.tel != nil {
		s.tel.batches.Inc()
	}
	s.workers[shard].ch <- batch
	s.pending[shard] = make([]Event, 0, s.batchSize)
}

// Close flushes partial batches, waits for every worker to drain, and
// reports the first consumer panic as an error. Idempotent; after Close
// the sharder accepts no more events. Consumer state (the merge) is the
// owner's business once Close has returned.
func (s *Sharder) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for i, b := range s.pending {
		s.publish(i, b)
		s.pending[i] = nil
	}
	for _, w := range s.workers {
		close(w.ch)
	}
	var err error
	for i, w := range s.workers {
		<-w.done
		if w.panicked != nil && err == nil {
			err = fmt.Errorf("fsb: shard %d (%T) panicked during delivery: %v", i, w.s, w.panicked)
		}
	}
	if s.tel != nil {
		var total uint64
		for _, n := range s.counts {
			total += n
		}
		s.tel.events.Add(total)
		s.tel.refs.Add(s.nrefs)
	}
	if s.span != nil {
		busy := make([]uint64, len(s.workers))
		for i, w := range s.workers {
			busy[i] = w.busyNS
		}
		for i, c := range traceWorkers(s.span, "shards", "shard", busy) {
			c.SetAttr("events", strconv.FormatUint(s.counts[i], 10))
		}
	}
	return err
}
