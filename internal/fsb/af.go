package fsb

import (
	"cmpmem/internal/cache"
	"cmpmem/internal/trace"
)

// AF is the protocol state of Dragonhead's address filter, shared by
// every model of the measured stream: the start/stop window that
// separates the workload from host and simulator noise, the core
// announced last, and the counter-board registers the control messages
// update. The zero value is a filter before MsgStart: closed, nothing
// retired.
type AF struct {
	// Open is true between MsgStart and MsgStop.
	Open bool
	// Dropped counts memory transactions filtered out while closed.
	Dropped uint64
	// Core is the core named by the latest MsgCoreID.
	Core uint8
	// Retired holds each core's latest MsgInstRetired; a message for a
	// core beyond cache.MaxCores is ignored.
	Retired [cache.MaxCores]uint64
	// Cycles is the largest MsgCycles value seen.
	Cycles uint64
}

// Msg applies one control message.
func (a *AF) Msg(m Message) {
	switch m.Kind {
	case MsgStart:
		a.Open = true
	case MsgStop:
		a.Open = false
	case MsgCoreID:
		a.Core = m.Core
	case MsgInstRetired:
		if int(m.Core) < len(a.Retired) {
			a.Retired[m.Core] = m.Value
		}
	case MsgCycles:
		a.Cycles = max(a.Cycles, m.Value)
	}
}

// Ref filters one bus event: it reports whether r is a measured memory
// transaction, applying message transactions and counting the
// transactions dropped outside the window. The common case — an open
// window and an ordinary transaction — is the one test kept inline.
func (a *AF) Ref(r trace.Ref) bool {
	if a.Open && !IsMessage(r) {
		return true
	}
	return a.rare(r)
}

// rare is Ref's out-of-line arm: a message, or a closed window.
func (a *AF) rare(r trace.Ref) bool {
	if m, ok := DecodeMessage(r); ok {
		a.Msg(m)
	} else {
		a.Dropped++
	}
	return false
}

// Instructions returns the instructions retired across every core, per
// the latest inst-retired messages.
func (a *AF) Instructions() uint64 {
	var total uint64
	for _, v := range a.Retired {
		total += v
	}
	return total
}

// CB is the counter board's collection clock: the host reads the
// counters every period of emulated time, which the models reproduce
// by crossing cycle boundaries on MsgCycles. The zero clock never
// fires.
type CB struct {
	next, period uint64
}

// NewCB returns a clock firing every period seconds at clockHz, and at
// least every cycle.
func NewCB(clockHz, period float64) CB {
	p := max(uint64(float64(period*clockHz)), 1)
	return CB{next: p, period: p}
}

// Due returns the next boundary at or below cycles and advances past
// it; ok is false when none is left. Call it until ok is false to
// yield, in order, every boundary one cycle count crossed.
func (c *CB) Due(cycles uint64) (at uint64, ok bool) {
	if c.period == 0 || cycles < c.next {
		return 0, false
	}
	at = c.next
	c.next += c.period
	return at, true
}
