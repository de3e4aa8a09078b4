// Package fsb models the front-side bus that couples the execution
// engine (SoftSDV DEX) to the cache emulator (Dragonhead).
//
// Two things travel on the bus:
//
//   - ordinary memory transactions (trace.Ref), snooped by Dragonhead's
//     logic-analyzer interface; and
//   - control messages, which the paper encodes as memory transactions to
//     reserved addresses: StartEmulation, StopEmulation, CoreID,
//     InstructionsRetired, and CyclesCompleted. They delimit the
//     measurement window, attribute accesses to virtual cores, and let
//     the emulator synchronize its counters with simulation time (the
//     two sides run in separate time domains).
package fsb

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmpmem/internal/mem"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// MsgKind enumerates the control messages of the co-simulation protocol.
type MsgKind uint8

const (
	// MsgStart opens the emulation window: subsequent transactions are
	// part of the simulated workload and must be counted.
	MsgStart MsgKind = iota + 1
	// MsgStop closes the emulation window: subsequent transactions are
	// host/simulator noise and must be ignored.
	MsgStop
	// MsgCoreID announces the virtual core about to execute; all
	// following transactions belong to it until the next MsgCoreID.
	MsgCoreID
	// MsgInstRetired reports the cumulative instructions retired by the
	// current core, for instruction-synchronized statistics (MPKI).
	MsgInstRetired
	// MsgCycles reports cumulative simulated cycles, for
	// time-synchronized statistics (miss rate over time).
	MsgCycles
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgStart:
		return "start"
	case MsgStop:
		return "stop"
	case MsgCoreID:
		return "core-id"
	case MsgInstRetired:
		return "inst-retired"
	case MsgCycles:
		return "cycles"
	default:
		return fmt.Sprintf("msg(%d)", uint8(k))
	}
}

// msgWindowBase is the reserved guest-address window used to encode
// control messages as memory transactions, mirroring the paper's use of
// predefined FSB transactions. It sits far above any arena address.
// Layout of an encoded message address:
//
//	bits 48..63  window tag (0xFFFF)
//	bits 44..47  message kind
//	bits  0..43  payload (instructions/cycles; 2^44 covers the paper's
//	             largest run, 357 billion instructions, with headroom)
const (
	msgWindowBase mem.Addr = 0xFFFF_0000_0000_0000
	msgKindShift           = 44
	msgValueMask           = (uint64(1) << msgKindShift) - 1
)

// Message is one control message.
type Message struct {
	Kind MsgKind
	// Core is the payload of MsgCoreID.
	Core uint8
	// Value is the payload of MsgInstRetired / MsgCycles.
	Value uint64
}

// EncodeMessage converts a control message into the reserved-address
// memory transaction that carries it on a physical bus.
func EncodeMessage(m Message) trace.Ref {
	addr := msgWindowBase |
		mem.Addr(uint64(m.Kind))<<msgKindShift |
		mem.Addr(m.Value&msgValueMask)
	return trace.Ref{Addr: addr, Core: m.Core, Size: 8, Kind: mem.Store}
}

// DecodeMessage recovers the control message carried by a
// reserved-window transaction. ok is false if r is an ordinary
// transaction.
func DecodeMessage(r trace.Ref) (m Message, ok bool) {
	if !IsMessage(r) {
		return Message{}, false
	}
	off := uint64(r.Addr - msgWindowBase)
	return Message{
		Kind:  MsgKind(off >> msgKindShift),
		Core:  r.Core,
		Value: off & msgValueMask,
	}, true
}

// IsMessage reports whether a transaction address falls in the reserved
// message window.
func IsMessage(r trace.Ref) bool {
	return r.Addr >= msgWindowBase
}

// Snooper observes bus traffic. OnRef is called for memory transactions,
// OnMsg for control messages.
type Snooper interface {
	OnRef(r trace.Ref)
	OnMsg(m Message)
}

// BatchSnooper is a Snooper that consumes a run of encoded events —
// memory transactions, and control messages as EncodeMessage writes
// them — in one call. OnBatch must leave the snooper exactly where one
// OnRef/OnMsg per event would, and may neither keep nor modify the slice.
type BatchSnooper interface {
	Snooper
	OnBatch(batch []trace.Ref)
}

// Finalizer is implemented by snoopers that need to know when the event
// stream is complete — e.g. to seal counters so that reading them is
// known to be safe. Bus.Close calls Finalize on every attached snooper
// that implements it, after all deliveries have drained; whoever feeds
// a snooper by hand calls it the same way. A snooper serves one stream:
// between its first event and Finalize its results belong to whichever
// goroutine delivers, on one processor as on many.
type Finalizer interface {
	Finalize()
}

// Deliver hands one batch to s: through OnBatch when s has one, else
// event by event, message transactions decoded back into OnMsg. The
// per-event form is the reference every OnBatch is tested against.
func Deliver(s Snooper, batch []trace.Ref) {
	if bs, ok := s.(BatchSnooper); ok {
		bs.OnBatch(batch)
		return
	}
	for _, r := range batch {
		if m, ok := DecodeMessage(r); ok {
			s.OnMsg(m)
		} else {
			s.OnRef(r)
		}
	}
}

// DefaultBatch is the most events one batch carries: large enough to
// amortize a channel handoff over tens of microseconds of emulation,
// small enough that a batch (64 KB) stays cache-resident while the
// snoopers walk it.
const DefaultBatch = 4096

// batchDepth bounds the batches published but not yet delivered to
// every snooper; one more buffer is being filled. The producer blocks
// when every buffer is out — the backpressure that keeps memory bounded.
const batchDepth = 4

// Bus carries events from the execution engine to any number of snoopers
// (the Dragonhead emulator, trace writers, bandwidth meters). Its unit
// is the batch: Refs takes a run of encoded events — a DEX slice, a
// decoded stretch of a stored stream — and the bus chooses how to
// deliver it when the first one arrives, from what it can observe. On
// one processor there is nothing to overlap: every snooper consumes the
// batch where it lies, on the producer's goroutine. With GOMAXPROCS >= 2
// the producer is one stage of a pipeline and the snoopers the other,
// the software analogue of the FPGAs passively consuming the bus in
// parallel with SoftSDV: batches are copied into batchDepth+1 recycled
// buffers of at most DefaultBatch events and appended to every
// snooper's lane, and min(GOMAXPROCS, snoopers) workers each claim
// whichever lane is ready and keep it until it is empty. Each buffer
// returns to the pool once every lane has delivered it. A lane is served
// by one worker at a time, oldest batch first, so every snooper observes
// the complete stream in the order it was produced and per-snooper
// results are bit-identical either way.
//
// Ref and Msg deliver one event at once, synchronously: a bus whose
// first event arrives that way never fans out, and on a fanned bus the
// event queues behind the batches in flight. The producer side (Refs,
// Ref, Msg, Close, Events, Messages) must stay on one goroutine, and
// results held by the snoopers may only be read after Close has
// returned, whichever way the bus delivered: Close finalizes them.
type Bus struct {
	snoopers  []Snooper
	events    uint64
	msgs      uint64
	batchSize int
	started   bool // events have flowed; attaching now would lose history
	closed    bool

	// Fan-out state, nil until the first batch on a bus that fans out.
	lanes   []*lane        // one per snooper, in attach order
	ready   chan *lane     // cap len(lanes): a lane is queued at most once
	free    chan *fanBatch // cap batchDepth+1: returning a buffer never blocks
	pend    *fanBatch      // the buffer being filled
	workers []fanWorker
	joined  sync.WaitGroup
	one     [1]trace.Ref // Ref/Msg's batch of one while workers run

	// tel is nil unless Instrument attached a registry; all pushes go
	// through nil-safe handles at batch/close granularity, so the
	// per-event hot path is untouched.
	tel  *busTelemetry
	span *telemetry.Span
}

// busTelemetry holds the bus's registered metrics.
type busTelemetry struct {
	events     *telemetry.Counter // fsb_events_total: refs + msgs broadcast
	msgs       *telemetry.Counter // fsb_msgs_total: control messages broadcast
	deliveries *telemetry.Counter // fsb_deliveries_total: events fanned out (events x snoopers)
	batches    *telemetry.Counter // fsb_batches_total: batches delivered
}

// Instrument registers the bus's metrics into r (nil r disables). Call
// before the first event.
func (b *Bus) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	b.tel = &busTelemetry{
		events:     r.Counter("fsb_events_total"),
		msgs:       r.Counter("fsb_msgs_total"),
		deliveries: r.Counter("fsb_deliveries_total"),
		batches:    r.Counter("fsb_batches_total"),
	}
}

// TraceSpan attaches parent as the span under which Close records where
// a fanned run's time went: a "fanout" group over one "worker<i>" span
// per worker (see traceWorkers). Call before the first event; nil
// disables. Timing costs two clock reads per (snooper, batch) delivery.
func (b *Bus) TraceSpan(parent *telemetry.Span) { b.span = parent }

// fanBatch is one pooled buffer of a fanned bus.
type fanBatch struct {
	refs []trace.Ref
	left atomic.Int32 // lanes still to deliver it
}

// lane is one snooper's FIFO of published buffers. A buffer leaves q
// only once delivered, so a non-empty lane is on the ready channel or
// held by the worker serving it, never both: at most one worker delivers
// to the snooper at a time.
type lane struct {
	s  Snooper
	mu sync.Mutex
	q  []*fanBatch
	// panicked is written by the worker serving the lane and read by the
	// next one, or by Close after the join.
	panicked any
}

// fanWorker is one delivery goroutine's tally, written only by it and
// read after the join: busyNS is the delivery wall time when the bus is
// traced, deliveries the (snooper, batch) pairs it served.
type fanWorker struct {
	busyNS     uint64
	deliveries uint64
}

// NewBus returns an empty bus with batches of DefaultBatch events.
func NewBus() *Bus { return NewBatchedBus(0) }

// NewBatchedBus returns an empty bus whose batches carry at most
// batchSize events; batchSize <= 0 or above DefaultBatch selects
// DefaultBatch. Only core.WithBusBatch and bench's probes pass a size;
// every other caller wants NewBus.
func NewBatchedBus(batchSize int) *Bus {
	if batchSize <= 0 || batchSize > DefaultBatch {
		batchSize = DefaultBatch
	}
	return &Bus{batchSize: batchSize}
}

// Attach registers a snooper. Order of attachment is delivery order
// on the producer's goroutine. Attach must happen before the first
// event: a late snooper would have lost history.
func (b *Bus) Attach(s Snooper) {
	if b.closed {
		panic("fsb: Attach on closed bus")
	}
	if b.started {
		panic("fsb: Attach after delivery started")
	}
	b.snoopers = append(b.snoopers, s)
}

// begin is the entry check of every event.
func (b *Bus) begin() {
	if b.closed {
		panic("fsb: event published after Close")
	}
	b.started = true
}

// Ref broadcasts a memory transaction.
func (b *Bus) Ref(r trace.Ref) {
	if b.workers != nil {
		b.one[0] = r
		b.Refs(b.one[:])
		return
	}
	b.begin()
	b.events++
	for _, s := range b.snoopers {
		s.OnRef(r)
	}
}

// Msg broadcasts a control message.
func (b *Bus) Msg(m Message) {
	if b.workers != nil {
		b.one[0] = EncodeMessage(m)
		b.Refs(b.one[:])
		return
	}
	b.begin()
	b.events++
	b.msgs++
	for _, s := range b.snoopers {
		s.OnMsg(m)
	}
}

// Refs broadcasts a run of encoded events, control messages as their
// reserved-window transactions. The slice is the caller's again when
// Refs returns.
func (b *Bus) Refs(batch []trace.Ref) {
	first := !b.started
	b.begin()
	b.events += uint64(len(batch))
	for i := range batch {
		if IsMessage(batch[i]) {
			b.msgs++
		}
	}
	if first {
		b.fanOut()
	}
	if b.workers == nil {
		for len(batch) > 0 {
			n := min(len(batch), b.batchSize)
			if b.tel != nil {
				b.tel.batches.Inc()
			}
			for _, s := range b.snoopers {
				Deliver(s, batch[:n])
			}
			batch = batch[n:]
		}
		return
	}
	for len(batch) > 0 {
		p := b.pend
		n := copy(p.refs[len(p.refs):b.batchSize], batch)
		p.refs = p.refs[:len(p.refs)+n]
		batch = batch[n:]
		if len(p.refs) == b.batchSize {
			b.publish()
		}
	}
}

// fanOut starts the workers when the first batch arrives on a bus with
// a snooper to overlap the producer with and a processor to run it on.
func (b *Bus) fanOut() {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 || len(b.snoopers) == 0 {
		return
	}
	b.free = make(chan *fanBatch, batchDepth+1)
	for i := 0; i <= batchDepth; i++ {
		b.free <- &fanBatch{refs: make([]trace.Ref, 0, b.batchSize)}
	}
	b.pend = <-b.free
	b.ready = make(chan *lane, len(b.snoopers))
	for _, s := range b.snoopers {
		b.lanes = append(b.lanes, &lane{s: s, q: make([]*fanBatch, 0, batchDepth+1)})
	}
	b.workers = make([]fanWorker, min(procs, len(b.snoopers)))
	b.joined.Add(len(b.workers))
	for i := range b.workers {
		go b.work(&b.workers[i])
	}
}

// publish appends the pending batch to every lane, queues each lane that
// was idle, and takes the next free buffer, waiting while all are in
// flight.
func (b *Bus) publish() {
	p := b.pend
	if len(p.refs) == 0 {
		return
	}
	if b.tel != nil {
		b.tel.batches.Inc()
	}
	p.left.Store(int32(len(b.lanes)))
	for _, l := range b.lanes {
		l.mu.Lock()
		idle := len(l.q) == 0
		l.q = append(l.q, p)
		l.mu.Unlock()
		if idle {
			b.ready <- l
		}
	}
	b.pend = <-b.free
	b.pend.refs = b.pend.refs[:0]
}

// work is a worker loop: it claims whichever lane is ready and delivers
// that lane's batches, oldest first, until the lane is empty, returning
// each buffer to the pool once the last lane has delivered it. Keeping
// the lane until it runs dry keeps a snooper's state on one worker while
// it has a backlog. A panicking snooper poisons its own lane, which
// keeps draining (without delivering) so the producer is never blocked
// by a corpse; the panic value resurfaces from Close.
func (b *Bus) work(w *fanWorker) {
	defer b.joined.Done()
	for l := range b.ready {
		for more := true; more; {
			l.mu.Lock()
			p := l.q[0]
			l.mu.Unlock()
			if l.panicked == nil {
				b.deliver(w, l, p.refs)
			}
			w.deliveries++
			l.mu.Lock()
			l.q = l.q[:copy(l.q, l.q[1:])]
			more = len(l.q) > 0
			l.mu.Unlock()
			if p.left.Add(-1) == 0 {
				b.free <- p
			}
		}
	}
}

func (b *Bus) deliver(w *fanWorker, l *lane, batch []trace.Ref) {
	defer func() {
		if r := recover(); r != nil {
			l.panicked = r
		}
	}()
	if b.span != nil {
		start := time.Now()
		defer func() { w.busyNS += uint64(time.Since(start)) }()
	}
	Deliver(l.s, batch)
}

// Close flushes the partial batch, waits for every lane to drain, and
// finalizes snoopers. It reports the first panic of a snooper served by
// a worker as an error (on the producer's goroutine a snooper's panic
// simply propagates). Close is idempotent; after Close the bus accepts
// no more events.
func (b *Bus) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.tel != nil {
		// Totals push once at close: per-event increments would put two
		// atomic adds in the producer's hot loop for no extra fidelity.
		b.tel.events.Add(b.events)
		b.tel.msgs.Add(b.msgs)
		b.tel.deliveries.Add(b.events * uint64(len(b.snoopers)))
	}
	if b.workers != nil {
		b.publish()
		// Every buffer but the one being filled back in the pool: every
		// lane has delivered everything, and no worker holds a lane.
		for i := 0; i < batchDepth; i++ {
			<-b.free
		}
		close(b.ready)
		b.joined.Wait()
		if b.span != nil {
			busy := make([]uint64, len(b.workers))
			for i, w := range b.workers {
				busy[i] = w.busyNS
			}
			for i, c := range traceWorkers(b.span, "fanout", "worker", busy) {
				c.SetAttr("deliveries", strconv.FormatUint(b.workers[i].deliveries, 10))
			}
		}
		for i, l := range b.lanes {
			if l.panicked != nil {
				return fmt.Errorf("fsb: snooper %d (%T) panicked during delivery: %v", i, l.s, l.panicked)
			}
		}
	}
	for _, s := range b.snoopers {
		if f, ok := s.(Finalizer); ok {
			f.Finalize()
		}
	}
	return nil
}

// traceWorkers attaches a joined fan-out's busy times to parent: one
// group span carrying the critical path (the busiest worker) and the
// worker count, over one sealed <child><i> span per worker, returned.
// All are telemetry.AttrConcurrent: they overlap the producer's phase.
func traceWorkers(parent *telemetry.Span, group, child string, busy []uint64) []*telemetry.Span {
	g := parent.AddTimedChild(group, 0, slices.Max(busy))
	g.SetAttr(telemetry.AttrConcurrent, "true")
	g.SetAttr("n", strconv.Itoa(len(busy)))
	out := make([]*telemetry.Span, len(busy))
	for i, ns := range busy {
		out[i] = g.AddTimedChild(child+strconv.Itoa(i), 0, ns)
		out[i].SetAttr(telemetry.AttrConcurrent, "true")
	}
	return out
}

// Events returns the total events (refs + msgs) broadcast.
func (b *Bus) Events() uint64 { return b.events }

// Messages returns the control messages broadcast.
func (b *Bus) Messages() uint64 { return b.msgs }
