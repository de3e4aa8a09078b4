package fsb

import (
	"strings"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// TestSharderRoutesAndOrders: each shard sees exactly its own refs, in
// producer order, with broadcasts interleaved at the right points.
func TestSharderRoutesAndOrders(t *testing.T) {
	const shards = 4
	consumers := make([]Snooper, shards)
	recs := make([]*recordingSnooper, shards)
	for i := range consumers {
		recs[i] = &recordingSnooper{}
		consumers[i] = recs[i]
	}
	// Small batch size so the test crosses several publish boundaries.
	s := NewSharder(consumers, 8)
	if s.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", s.Shards(), shards)
	}

	s.Broadcast(Message{Kind: MsgStart})
	const refs = 1000
	for i := 0; i < refs; i++ {
		r := trace.Ref{Addr: mem.Addr(i * 64), Size: 8, Kind: mem.Load}
		s.Ref(i%shards, r)
		if i == refs/2 {
			s.Broadcast(Message{Kind: MsgCycles, Value: uint64(i)})
		}
	}
	s.Broadcast(Message{Kind: MsgStop})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for sh, rec := range recs {
		if len(rec.msgs) != 3 {
			t.Fatalf("shard %d: %d msgs, want 3 (start, cycles, stop)", sh, len(rec.msgs))
		}
		if rec.msgs[0].Kind != MsgStart || rec.msgs[1].Kind != MsgCycles || rec.msgs[2].Kind != MsgStop {
			t.Errorf("shard %d: broadcast order %v %v %v", sh, rec.msgs[0].Kind, rec.msgs[1].Kind, rec.msgs[2].Kind)
		}
		if len(rec.refs) != refs/shards {
			t.Fatalf("shard %d: %d refs, want %d", sh, len(rec.refs), refs/shards)
		}
		for j, r := range rec.refs {
			want := mem.Addr((j*shards + sh) * 64)
			if r.Addr != want {
				t.Fatalf("shard %d ref %d: addr %#x, want %#x (reordered or misrouted)", sh, j, r.Addr, want)
			}
		}
	}
	ev := s.counts
	for sh, n := range ev {
		if want := uint64(refs/shards + 3); n != want {
			t.Errorf("shard events[%d] = %d, want %d", sh, n, want)
		}
	}
}

// panickySnooper blows up on a designated address.
type panickySnooper struct {
	bad mem.Addr
}

func (p *panickySnooper) OnRef(r trace.Ref) {
	if r.Addr == p.bad {
		panic("poisoned address")
	}
}
func (p *panickySnooper) OnMsg(Message) {}

// TestSharderPanicPropagation: a consumer panic surfaces as a Close
// error naming the shard, and never deadlocks the producer.
func TestSharderPanicPropagation(t *testing.T) {
	consumers := []Snooper{&recordingSnooper{}, &panickySnooper{bad: 0xDEAD}}
	s := NewSharder(consumers, 4)
	for i := 0; i < 100; i++ {
		s.Ref(i%2, trace.Ref{Addr: mem.Addr(i), Size: 8})
	}
	s.Ref(1, trace.Ref{Addr: 0xDEAD, Size: 8})
	for i := 0; i < 100; i++ {
		s.Ref(i%2, trace.Ref{Addr: mem.Addr(0x1000 + i), Size: 8})
	}
	err := s.Close()
	if err == nil {
		t.Fatal("consumer panic did not surface from Close")
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("error does not name the failing shard: %v", err)
	}
	if s.Close() != nil {
		t.Error("second Close must be a nil no-op")
	}
}

// TestSharderMatchesSerialDigest: for any routing function, the
// concatenation of per-shard streams in per-shard order is a
// permutation of the input that preserves each shard's subsequence —
// checked by running a StreamDigest per shard and comparing against
// serially-filtered digests.
func TestSharderMatchesSerialDigest(t *testing.T) {
	const shards = 2
	shardOf := func(r trace.Ref) int { return int(r.Addr>>6) & (shards - 1) }

	stream := make([]trace.Ref, 5000)
	for i := range stream {
		stream[i] = trace.Ref{Addr: mem.Addr(i * 13 * 64), Size: 8, Kind: mem.Load, Core: uint8(i % 4)}
	}

	// Serial reference: filter the stream per shard.
	want := make([]*StreamDigest, shards)
	for i := range want {
		want[i] = NewStreamDigest()
	}
	for _, r := range stream {
		want[shardOf(r)].OnRef(r)
	}

	got := make([]*StreamDigest, shards)
	consumers := make([]Snooper, shards)
	for i := range got {
		got[i] = NewStreamDigest()
		consumers[i] = got[i]
	}
	s := NewSharder(consumers, 0)
	for _, r := range stream {
		s.Ref(shardOf(r), r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Sum() != want[i].Sum() || got[i].Events() != want[i].Events() {
			t.Errorf("shard %d digest %#x (%d events), want %#x (%d events)",
				i, got[i].Sum(), got[i].Events(), want[i].Sum(), want[i].Events())
		}
	}
}

// TestSharderTelemetry: the sharder's registered counters reconcile
// with its own producer-side accounting.
func TestSharderTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	recs := []Snooper{&recordingSnooper{}, &recordingSnooper{}}
	s := NewSharder(recs, 16)
	s.Instrument(reg, "core_shard")
	for i := 0; i < 100; i++ {
		s.Ref(i%2, trace.Ref{Addr: mem.Addr(i), Size: 8})
	}
	s.Broadcast(Message{Kind: MsgStop})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core_shard_events_total"]; got != 102 {
		t.Errorf("events_total = %d, want 102", got)
	}
	if got := snap.Counters["core_shard_refs_total"]; got != 100 {
		t.Errorf("refs_total = %d, want 100", got)
	}
	if snap.Counters["core_shard_batches_total"] == 0 {
		t.Error("batches_total never incremented")
	}
}
