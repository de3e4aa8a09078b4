package fsb

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// withProcs runs the rest of the test at GOMAXPROCS n: the bus fans out
// over min(GOMAXPROCS, snoopers) workers, so both sides of that
// selection are a matter of the setting, not of the host.
func withProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// encodedStream is n memory transactions with a control message before
// every 97th, as the encoded run a producer hands to Refs.
func encodedStream(n int) []trace.Ref {
	var out []trace.Ref
	for i := 0; i < n; i++ {
		if i%97 == 0 {
			out = append(out, EncodeMessage(Message{Kind: MsgCoreID, Core: uint8(i % 32)}))
		}
		out = append(out, trace.Ref{Addr: mem.Addr(i * 64), Core: uint8(i % 8), Size: 8, Kind: mem.Load})
	}
	return out
}

// feedCuts hands stream to the bus in batches cut at random places.
func feedCuts(b *Bus, stream []trace.Ref, rng *rand.Rand, maxCut int) {
	for len(stream) > 0 {
		n := 1 + rng.Intn(maxCut)
		if n > len(stream) {
			n = len(stream)
		}
		b.Refs(stream[:n])
		stream = stream[n:]
	}
}

// batchDigest is a StreamDigest that takes batches whole: the
// BatchSnooper beside the plain ones in the mixed-bus tests.
type batchDigest struct {
	StreamDigest
	batches int
	maxLen  int
	bases   map[*trace.Ref]bool
}

func (d *batchDigest) OnBatch(batch []trace.Ref) {
	d.batches++
	d.maxLen = max(d.maxLen, len(batch))
	if d.bases == nil {
		d.bases = make(map[*trace.Ref]bool)
	}
	d.bases[&batch[0]] = true
	Deliver(&d.StreamDigest, batch)
}

// finalizingSnooper records events plus the Finalize call.
type finalizingSnooper struct {
	recordingSnooper
	finalized bool
}

func (s *finalizingSnooper) Finalize() { s.finalized = true }

// TestBatchedBusOrderIdentical: every snooper of a bus fed in batches
// must see the exact event sequence per-event delivery gives, whatever
// the batch size, the cut points and the worker count.
func TestBatchedBusOrderIdentical(t *testing.T) {
	stream := encodedStream(10_000)

	serial := NewBus()
	var want recordingSnooper
	serial.Attach(&want)
	for _, r := range stream {
		if m, ok := DecodeMessage(r); ok {
			serial.Msg(m)
		} else {
			serial.Ref(r)
		}
	}
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 2, 4} {
		for _, batch := range []int{1, 7, 64, DefaultBatch, 3 * len(stream)} {
			t.Run(fmt.Sprintf("procs=%d/batch=%d", procs, batch), func(t *testing.T) {
				withProcs(t, procs)
				bus := NewBatchedBus(batch)
				var a, b, c recordingSnooper
				bus.Attach(&a)
				bus.Attach(&b)
				bus.Attach(&c)
				feedCuts(bus, stream, rand.New(rand.NewSource(int64(batch))), 9000)
				if err := bus.Close(); err != nil {
					t.Fatal(err)
				}
				for name, got := range map[string]*recordingSnooper{"a": &a, "b": &b, "c": &c} {
					if len(got.refs) != len(want.refs) || len(got.msgs) != len(want.msgs) {
						t.Fatalf("%s: %d refs %d msgs, want %d refs %d msgs",
							name, len(got.refs), len(got.msgs), len(want.refs), len(want.msgs))
					}
					for i := range want.refs {
						if got.refs[i] != want.refs[i] {
							t.Fatalf("%s: ref %d = %+v, want %+v", name, i, got.refs[i], want.refs[i])
						}
					}
					for i := range want.msgs {
						if got.msgs[i] != want.msgs[i] {
							t.Fatalf("%s: msg %d = %+v, want %+v", name, i, got.msgs[i], want.msgs[i])
						}
					}
				}
				if bus.Events() != serial.Events() || bus.Messages() != serial.Messages() {
					t.Errorf("counters %d/%d, want %d/%d",
						bus.Events(), bus.Messages(), serial.Events(), serial.Messages())
				}
			})
		}
	}
}

// TestBusFanOutMixedSnoopers: batch and plain snoopers side by side, at
// one, two and four processors, with single events between the batches:
// every snooper's digest equals the per-event reference, the counters
// agree, and a fanned bus never has more than its pool in flight.
func TestBusFanOutMixedSnoopers(t *testing.T) {
	stream := encodedStream(60_000)
	ref := NewStreamDigest()
	Deliver(ref, stream)
	var msgs uint64
	for _, r := range stream {
		if IsMessage(r) {
			msgs++
		}
	}

	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			bus := NewBus()
			reg := telemetry.NewRegistry()
			bus.Instrument(reg)
			root := telemetry.StartSpan("test")
			bus.TraceSpan(root)
			plain := []*StreamDigest{NewStreamDigest(), NewStreamDigest(), NewStreamDigest()}
			batched := []*batchDigest{{StreamDigest: *NewStreamDigest()}, {StreamDigest: *NewStreamDigest()}}
			bus.Attach(plain[0])
			bus.Attach(batched[0])
			bus.Attach(plain[1])
			bus.Attach(batched[1])
			bus.Attach(plain[2])

			// A DEX-slice-sized batch first, then random cuts with a single
			// Ref or Msg between them.
			rest := stream
			bus.Refs(rest[:50_000])
			rest = rest[50_000:]
			rng := rand.New(rand.NewSource(int64(procs)))
			for len(rest) > 0 {
				if m, ok := DecodeMessage(rest[0]); ok {
					bus.Msg(m)
				} else {
					bus.Ref(rest[0])
				}
				rest = rest[1:]
				n := min(rng.Intn(3000), len(rest))
				bus.Refs(rest[:n])
				rest = rest[n:]
			}
			if err := bus.Close(); err != nil {
				t.Fatal(err)
			}

			for i, d := range plain {
				if d.Sum() != ref.Sum() || d.Events() != ref.Events() {
					t.Errorf("plain snooper %d: digest %x over %d events, want %x over %d", i, d.Sum(), d.Events(), ref.Sum(), ref.Events())
				}
			}
			for i, d := range batched {
				if d.Sum() != ref.Sum() || d.Events() != ref.Events() {
					t.Errorf("batch snooper %d: digest %x over %d events, want %x over %d", i, d.Sum(), d.Events(), ref.Sum(), ref.Events())
				}
				if d.maxLen > DefaultBatch {
					t.Errorf("batch snooper %d saw a batch of %d events, bound %d", i, d.maxLen, DefaultBatch)
				}
				if procs > 1 && len(d.bases) > batchDepth+1 {
					t.Errorf("batch snooper %d saw %d distinct buffers, pool is %d", i, len(d.bases), batchDepth+1)
				}
			}
			if bus.Events() != uint64(len(stream)) || bus.Messages() != msgs {
				t.Errorf("bus counted %d events %d msgs, want %d and %d", bus.Events(), bus.Messages(), len(stream), msgs)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["fsb_deliveries_total"]; got != uint64(len(stream))*5 {
				t.Errorf("fsb_deliveries_total = %d, want events x snoopers = %d", got, len(stream)*5)
			}
			if got := snap.Counters["fsb_batches_total"]; got != uint64(batched[0].batches) {
				t.Errorf("fsb_batches_total = %d, a batch snooper saw %d", got, batched[0].batches)
			}

			fan := root.Find("fanout")
			if procs == 1 {
				if fan != nil {
					t.Error("synchronous delivery recorded a fanout span")
				}
				return
			}
			if fan == nil {
				t.Fatal("no fanout span under the traced parent")
			}
			if fan.Attrs[telemetry.AttrConcurrent] != "true" || fan.Attrs["n"] != fmt.Sprint(procs) || len(fan.Children) != procs {
				t.Errorf("fanout span: attrs %v, %d children, want concurrent, n=%d", fan.Attrs, len(fan.Children), procs)
			}
			served, critical := 0, uint64(0)
			for i, c := range fan.Children {
				if c.Name != fmt.Sprintf("worker%d", i) || c.Attrs[telemetry.AttrConcurrent] != "true" {
					t.Errorf("worker span %d: %q attrs %v", i, c.Name, c.Attrs)
				}
				var n int
				fmt.Sscan(c.Attrs["deliveries"], &n)
				served += n
				critical = max(critical, c.WallNS)
			}
			if want := batched[0].batches * 5; served != want || fan.WallNS != critical {
				t.Errorf("workers made %d deliveries (want batches x snoopers = %d), fanout wall %d vs busiest worker %d",
					served, want, fan.WallNS, critical)
			}
		})
	}
}

// countingSnooper atomically counts deliveries (safe to read mid-run).
type countingSnooper struct {
	refs atomic.Uint64
	msgs atomic.Uint64
}

func (s *countingSnooper) OnRef(trace.Ref) { s.refs.Add(1) }
func (s *countingSnooper) OnMsg(Message)   { s.msgs.Add(1) }

// TestBatchedBusFlushOnClose: events still sitting in a partial batch at
// Close time must reach every snooper before Close returns.
func TestBatchedBusFlushOnClose(t *testing.T) {
	withProcs(t, 2)
	bus := NewBus() // 1001 events: the batch never fills on its own
	var s, s2 countingSnooper
	bus.Attach(&s)
	bus.Attach(&s2)
	stream := make([]trace.Ref, 0, 1001)
	for i := 0; i < 1000; i++ {
		stream = append(stream, trace.Ref{Addr: mem.Addr(i), Size: 8})
	}
	bus.Refs(append(stream, EncodeMessage(Message{Kind: MsgStop})))
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*countingSnooper{&s, &s2} {
		if s.refs.Load() != 1000 || s.msgs.Load() != 1 {
			t.Fatalf("after Close: %d refs %d msgs, want 1000 and 1", s.refs.Load(), s.msgs.Load())
		}
	}
}

// TestBatchedBusLifecycleHooks: Close calls Finalize, never earlier,
// whether the bus fans out — a lone snooper included, since the
// producer is the other stage — or delivery stays on the producer's
// goroutine.
func TestBatchedBusLifecycleHooks(t *testing.T) {
	one := []trace.Ref{{Addr: 64, Size: 8}}
	for _, tc := range []struct {
		name         string
		procs, extra int
		perEvent     bool
	}{
		{"fanned", 2, 1, false},
		{"one processor", 1, 1, false},
		{"one snooper", 2, 0, false},
		{"per-event first", 2, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.procs)
			bus := NewBatchedBus(8)
			var s finalizingSnooper
			bus.Attach(&s)
			for i := 0; i < tc.extra; i++ {
				bus.Attach(&countingSnooper{})
			}
			if tc.perEvent {
				bus.Ref(one[0])
			}
			bus.Refs(one)
			if s.finalized {
				t.Error("finalized before Close")
			}
			if err := bus.Close(); err != nil {
				t.Fatal(err)
			}
			if !s.finalized {
				t.Error("Finalize not called by Close")
			}
		})
	}
}

// panickingSnooper blows up on the nth ref.
type panickingSnooper struct {
	n     int
	seen  int
	after atomic.Uint64 // refs delivered after the panic (must stay 0)
}

func (s *panickingSnooper) OnRef(trace.Ref) {
	s.seen++
	if s.seen == s.n {
		panic("emulator fault")
	}
	if s.seen > s.n {
		s.after.Add(1)
	}
}
func (s *panickingSnooper) OnMsg(Message) {}

// TestBatchedBusPanicPropagation: a panicking snooper must not deadlock
// the producer; its panic surfaces as an error from Close naming it, its
// poisoned lane stops delivering, and the other snoopers still get
// everything.
func TestBatchedBusPanicPropagation(t *testing.T) {
	withProcs(t, 2)
	bus := NewBatchedBus(16)
	bad := &panickingSnooper{n: 100}
	var good countingSnooper
	bus.Attach(&good)
	bus.Attach(bad)
	stream := make([]trace.Ref, 5000)
	for i := range stream {
		stream[i] = trace.Ref{Addr: mem.Addr(i * 64), Size: 8}
	}
	feedCuts(bus, stream, rand.New(rand.NewSource(1)), 300)
	err := bus.Close()
	if err == nil {
		t.Fatal("snooper panic not propagated from Close")
	}
	if !strings.Contains(err.Error(), "emulator fault") || !strings.Contains(err.Error(), "snooper 1 (*fsb.panickingSnooper)") {
		t.Errorf("panic cause or culprit lost: %v", err)
	}
	if got := good.refs.Load(); got != 5000 {
		t.Errorf("healthy snooper got %d refs, want 5000", got)
	}
	if bad.after.Load() != 0 {
		t.Errorf("poisoned lane delivered %d refs after panic", bad.after.Load())
	}
}

// spinDigest is a batchDigest that burns spin extra digest rounds per
// batch: the slow snooper of the skewed-lane test.
type spinDigest struct {
	batchDigest
	spin  int
	waste StreamDigest
}

func (d *spinDigest) OnBatch(batch []trace.Ref) {
	for i := 0; i < d.spin; i++ {
		Deliver(&d.waste, batch)
	}
	d.batchDigest.OnBatch(batch)
}

// TestBusLanesBalanceAndIsolate: workers claim lanes, not snoopers. One
// snooper ten times slower than the rest still leaves every digest equal
// to the per-event reference with no snooper ever holding more than the
// pool; and a snooper that panics, attached first, poisons only its own
// lane — the three beside it get every event and Close names it.
func TestBusLanesBalanceAndIsolate(t *testing.T) {
	stream := encodedStream(30_000)
	ref := NewStreamDigest()
	Deliver(ref, stream)

	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("procs=%d/skewed", procs), func(t *testing.T) {
			withProcs(t, procs)
			bus := NewBatchedBus(256)
			root := telemetry.StartSpan("test")
			bus.TraceSpan(root)
			ds := []*spinDigest{{spin: 10}, {}, {}, {}, {}}
			for _, d := range ds {
				d.StreamDigest = *NewStreamDigest()
				bus.Attach(d)
			}
			feedCuts(bus, stream, rand.New(rand.NewSource(int64(procs))), 2000)
			if err := bus.Close(); err != nil {
				t.Fatal(err)
			}
			for i, d := range ds {
				if d.Sum() != ref.Sum() || d.Events() != ref.Events() {
					t.Errorf("snooper %d: digest %x over %d events, want %x over %d", i, d.Sum(), d.Events(), ref.Sum(), ref.Events())
				}
				if len(d.bases) > batchDepth+1 {
					t.Errorf("snooper %d saw %d distinct buffers, pool is %d", i, len(d.bases), batchDepth+1)
				}
			}
			fan := root.Find("fanout")
			if fan == nil || len(fan.Children) != min(procs, len(ds)) {
				t.Fatalf("fanout span %+v, want %d workers", fan, min(procs, len(ds)))
			}
			delivered := 0
			for _, c := range fan.Children {
				var n int
				fmt.Sscan(c.Attrs["deliveries"], &n)
				delivered += n
			}
			if want := ds[0].batches * len(ds); delivered != want {
				t.Errorf("workers made %d deliveries, want %d", delivered, want)
			}
		})
		t.Run(fmt.Sprintf("procs=%d/panic", procs), func(t *testing.T) {
			withProcs(t, procs)
			bus := NewBatchedBus(256)
			bad := &panickingSnooper{n: 100}
			bus.Attach(bad)
			good := []*StreamDigest{NewStreamDigest(), NewStreamDigest(), NewStreamDigest()}
			for _, d := range good {
				bus.Attach(d)
			}
			feedCuts(bus, stream, rand.New(rand.NewSource(int64(procs))), 2000)
			err := bus.Close()
			if err == nil || !strings.Contains(err.Error(), "snooper 0 (*fsb.panickingSnooper)") {
				t.Fatalf("Close = %v, want the panic of snooper 0", err)
			}
			for i, d := range good {
				if d.Sum() != ref.Sum() || d.Events() != ref.Events() {
					t.Errorf("healthy snooper %d: digest %x over %d events, want %x over %d", i+1, d.Sum(), d.Events(), ref.Sum(), ref.Events())
				}
			}
			if bad.after.Load() != 0 {
				t.Errorf("poisoned lane delivered %d refs after panic", bad.after.Load())
			}
		})
	}
}

// TestBatchedBusMisuse: the bus fails loudly on API misuse instead of
// silently corrupting the stream.
func TestBatchedBusMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}

	for _, procs := range []int{1, 2} {
		withProcs(t, procs)
		bus := NewBatchedBus(4)
		bus.Attach(&countingSnooper{})
		bus.Attach(&countingSnooper{})
		bus.Refs([]trace.Ref{{Addr: 64, Size: 8}})
		expectPanic("late attach", func() { bus.Attach(&countingSnooper{}) })
		if err := bus.Close(); err != nil {
			t.Fatal(err)
		}
		if err := bus.Close(); err != nil {
			t.Fatalf("Close not idempotent: %v", err)
		}
		expectPanic("ref after close", func() { bus.Ref(trace.Ref{Addr: 128, Size: 8}) })
		expectPanic("batch after close", func() { bus.Refs([]trace.Ref{{Addr: 128, Size: 8}}) })
		expectPanic("attach after close", func() { bus.Attach(&countingSnooper{}) })
	}

	bus := NewBus()
	bus.Attach(&countingSnooper{})
	bus.Msg(Message{Kind: MsgStart})
	expectPanic("late attach after a single event", func() { bus.Attach(&countingSnooper{}) })
}

// TestBatchedBusDefaultBatch: a batch size outside (0, DefaultBatch]
// selects DefaultBatch — the pool's buffers are bounded by it.
func TestBatchedBusDefaultBatch(t *testing.T) {
	for n, want := range map[int]int{0: DefaultBatch, -3: DefaultBatch, 1 << 20: DefaultBatch, 64: 64} {
		if got := NewBatchedBus(n).batchSize; got != want {
			t.Errorf("NewBatchedBus(%d).batchSize = %d, want %d", n, got, want)
		}
	}
	if got := NewBus().batchSize; got != DefaultBatch {
		t.Errorf("NewBus().batchSize = %d, want %d", got, DefaultBatch)
	}
}
