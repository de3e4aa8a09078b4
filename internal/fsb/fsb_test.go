package fsb

import (
	"testing"
	"testing/quick"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: MsgStart},
		{Kind: MsgStop},
		{Kind: MsgCoreID, Core: 31},
		{Kind: MsgInstRetired, Core: 7, Value: 123_456_789},
		{Kind: MsgCycles, Value: (1 << 44) - 1},
	}
	for _, m := range msgs {
		r := EncodeMessage(m)
		if !IsMessage(r) {
			t.Errorf("%v: encoded ref not recognized as message", m.Kind)
		}
		got, ok := DecodeMessage(r)
		if !ok {
			t.Fatalf("%v: decode failed", m.Kind)
		}
		if got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

// TestMessageRoundTripProperty: any message with a 44-bit payload
// round-trips exactly.
func TestMessageRoundTripProperty(t *testing.T) {
	check := func(kind uint8, core uint8, value uint64) bool {
		m := Message{
			Kind:  MsgKind(kind%5 + 1),
			Core:  core,
			Value: value & msgValueMask,
		}
		got, ok := DecodeMessage(EncodeMessage(m))
		return ok && got == m
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestOrdinaryRefIsNotMessage(t *testing.T) {
	r := trace.Ref{Addr: 0x4000_0000, Size: 8}
	if IsMessage(r) {
		t.Error("arena-range address classified as message")
	}
	if _, ok := DecodeMessage(r); ok {
		t.Error("DecodeMessage accepted ordinary ref")
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		MsgStart:       "start",
		MsgStop:        "stop",
		MsgCoreID:      "core-id",
		MsgInstRetired: "inst-retired",
		MsgCycles:      "cycles",
		MsgKind(99):    "msg(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", k, got, want)
		}
	}
}

// recordingSnooper captures delivered events in order.
type recordingSnooper struct {
	refs []trace.Ref
	msgs []Message
}

func (s *recordingSnooper) OnRef(r trace.Ref) { s.refs = append(s.refs, r) }
func (s *recordingSnooper) OnMsg(m Message)   { s.msgs = append(s.msgs, m) }

func TestBusBroadcastOrder(t *testing.T) {
	bus := NewBus()
	var a, b recordingSnooper
	bus.Attach(&a)
	bus.Attach(&b)
	bus.Msg(Message{Kind: MsgStart})
	bus.Ref(trace.Ref{Addr: 1, Size: 8, Kind: mem.Load})
	bus.Ref(trace.Ref{Addr: 2, Size: 8, Kind: mem.Store})
	bus.Msg(Message{Kind: MsgStop})

	for name, s := range map[string]*recordingSnooper{"a": &a, "b": &b} {
		if len(s.refs) != 2 || len(s.msgs) != 2 {
			t.Fatalf("%s: got %d refs, %d msgs; want 2, 2", name, len(s.refs), len(s.msgs))
		}
		if s.refs[0].Addr != 1 || s.refs[1].Addr != 2 {
			t.Errorf("%s: delivery out of order", name)
		}
	}
	if bus.Events() != 4 {
		t.Errorf("bus counted %d events; want 4", bus.Events())
	}
}

// TestMessagesSurviveBusAsRefs: a message encoded as a transaction and
// delivered as a ref must be decodable by the receiver (the physical
// path: messages ARE memory transactions).
func TestMessagesSurviveBusAsRefs(t *testing.T) {
	bus := NewBus()
	var s recordingSnooper
	bus.Attach(&s)
	m := Message{Kind: MsgInstRetired, Core: 5, Value: 42}
	bus.Ref(EncodeMessage(m))
	if len(s.refs) != 1 {
		t.Fatal("encoded message not delivered as ref")
	}
	got, ok := DecodeMessage(s.refs[0])
	if !ok || got != m {
		t.Errorf("decode after bus transit: %+v, %v", got, ok)
	}
}
