package fsb

import (
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// TestAFMessages: every message kind lands in its register, whether it
// arrives decoded (Msg) or as its reserved-address transaction (Ref).
func TestAFMessages(t *testing.T) {
	for _, viaRef := range []bool{false, true} {
		var a AF
		send := func(m Message) {
			if !viaRef {
				a.Msg(m)
			} else if a.Ref(EncodeMessage(m)) {
				t.Errorf("message %v reported as a measured transaction", m.Kind)
			}
		}
		send(Message{Kind: MsgStart})
		if !a.Open {
			t.Fatal("MsgStart left the window closed")
		}
		send(Message{Kind: MsgCoreID, Core: 9})
		send(Message{Kind: MsgInstRetired, Core: 3, Value: 700})
		send(Message{Kind: MsgInstRetired, Core: 5, Value: 300})
		send(Message{Kind: MsgInstRetired, Core: 3, Value: 1000})
		send(Message{Kind: MsgCycles, Value: 50})
		send(Message{Kind: MsgCycles, Value: 40}) // never goes backwards
		send(Message{Kind: MsgStop})
		if a.Open || a.Core != 9 || a.Cycles != 50 || a.Instructions() != 1300 {
			t.Errorf("viaRef=%v: open=%v core=%d cycles=%d inst=%d; want false 9 50 1300",
				viaRef, a.Open, a.Core, a.Cycles, a.Instructions())
		}
		if a.Dropped != 0 {
			t.Errorf("viaRef=%v: messages counted as %d drops", viaRef, a.Dropped)
		}
	}
}

// TestAFDropsOutsideWindow: memory transactions pass only inside the
// window; the ones outside are counted.
func TestAFDropsOutsideWindow(t *testing.T) {
	var a AF
	r := trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load}
	var passed []bool
	passed = append(passed, a.Ref(r), a.Ref(r))
	a.Msg(Message{Kind: MsgStart})
	passed = append(passed, a.Ref(r), a.Ref(r), a.Ref(r))
	a.Msg(Message{Kind: MsgStop})
	passed = append(passed, a.Ref(r))
	want := []bool{false, false, true, true, true, false}
	for i := range want {
		if passed[i] != want[i] {
			t.Errorf("transaction %d passed=%v, want %v", i, passed[i], want[i])
		}
	}
	if a.Dropped != 3 {
		t.Errorf("dropped %d, want 3", a.Dropped)
	}
}

// TestAFIgnoresOutOfRangeCore: a retired count for a core beyond
// cache.MaxCores is dropped, not a panic.
func TestAFIgnoresOutOfRangeCore(t *testing.T) {
	var a AF
	a.Msg(Message{Kind: MsgInstRetired, Core: cache.MaxCores - 1, Value: 5})
	a.Msg(Message{Kind: MsgInstRetired, Core: cache.MaxCores, Value: 7})
	a.Msg(Message{Kind: MsgInstRetired, Core: 255, Value: 11})
	if got := a.Instructions(); got != 5 {
		t.Errorf("instructions = %d, want 5", got)
	}
}

// TestCBDue: one cycle count crossing several boundaries yields each
// once, in order; a zero clock never fires.
func TestCBDue(t *testing.T) {
	c := NewCB(1000, 0.1) // a boundary every 100 cycles
	due := func(cycles uint64) []uint64 {
		var out []uint64
		for at, ok := c.Due(cycles); ok; at, ok = c.Due(cycles) {
			out = append(out, at)
		}
		return out
	}
	if got := due(99); len(got) != 0 {
		t.Errorf("before the first boundary: %v", got)
	}
	if got := due(350); len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Errorf("crossing three boundaries: %v, want [100 200 300]", got)
	}
	if got := due(350); len(got) != 0 {
		t.Errorf("boundaries yielded twice: %v", got)
	}
	if got := due(400); len(got) != 1 || got[0] != 400 {
		t.Errorf("landing on a boundary: %v, want [400]", got)
	}
	tiny := NewCB(1, 0.1)
	if at, ok := tiny.Due(1); !ok || at != 1 {
		t.Errorf("sub-cycle period: Due(1) = %d, %v; want 1, true", at, ok)
	}
	var zero CB
	if at, ok := zero.Due(^uint64(0)); ok {
		t.Errorf("zero clock fired at %d", at)
	}
}
