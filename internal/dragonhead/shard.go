// Intra-run bank sharding: one emulated run spread across worker
// goroutines without changing a single published number.
//
// The physical board already partitions the LLC by address interleave —
// four CC FPGAs each own every fourth line and never communicate during
// emulation. The sharded execution path exploits exactly that hardware
// property in software: the AF stage (window gating, message decode,
// line regulation) stays on the producer goroutine, and each regulated
// line request is routed over an fsb.Sharder to the worker owning its
// bank. Because bank selection uses the low line-number bits and
// nshards divides the bank count, shard = blk mod nshards is a coarser
// cut of the same interleave: every bank's request subsequence arrives
// at its owning worker in exact producer order, so each bank's cache
// state — and therefore every Stats field, per-bank and merged — is
// bit-identical to serial execution.
//
// CB sampling is the one piece of state that reads across banks
// mid-run. Each shard carries a replica of the sampling state machine,
// driven by the broadcast cycles-completed messages (the only message
// kind shards see): when a replica crosses a 500 µs boundary it
// snapshots its own banks' cumulative counters. The producer keeps the
// sample skeletons (boundary cycles + instructions retired, both
// producer-owned state), and Finalize sums the per-shard partials into
// them. Every replica sees the same message values in the same order,
// so all shards cross identical boundaries and the merge is a straight
// index-wise sum — deterministic, and equal to what the serial CB
// would have read at the same point in the stream.
package dragonhead

import (
	"fmt"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/trace"
)

// shardBatch is the sharder's publish granularity. Smaller than
// fsb.DefaultBatch: the stream splits nshards ways, and the CB merge
// wants sample boundaries to flush reasonably promptly.
const shardBatch = 1024

// shardSample is one shard's cumulative counter snapshot at a CB
// boundary, merged into the producer's sample skeleton at Finalize.
type shardSample struct {
	accesses uint64
	misses   uint64
}

// emuShard consumes one address partition of the line-request stream.
// It owns banks b with b mod nshards == id; no other goroutine touches
// those caches between the first routed event and Sharder.Close.
type emuShard struct {
	e     *Emulator
	owned []*cache.Cache

	// CB sampling replica, driven only by broadcast MsgCycles.
	af       fsb.AF
	cb       fsb.CB
	partials []shardSample
}

// OnRef implements fsb.Snooper for shard delivery. The event's Addr
// carries the unit's address (the AF already regulated), so this is the
// lookup the serial path does.
func (s *emuShard) OnRef(r trace.Ref) { s.e.lookup(uint64(r.Addr), r.Kind, r.Core) }

// OnMsg implements fsb.Snooper: the sampling replica. Only MsgCycles is
// broadcast to shards; everything else is AF/CB producer state.
func (s *emuShard) OnMsg(m fsb.Message) {
	s.af.Msg(m)
	for _, ok := s.cb.Due(s.af.Cycles); ok; _, ok = s.cb.Due(s.af.Cycles) {
		var acc, miss uint64
		for _, b := range s.owned {
			st := b.Stats()
			acc += st.Accesses
			miss += st.Misses
		}
		s.partials = append(s.partials, shardSample{accesses: acc, misses: miss})
	}
}

// ensureSharder lazily spins up the shard workers on the first event
// that needs them.
func (e *Emulator) ensureSharder() {
	if e.sharder != nil {
		return
	}
	n := e.nshards
	consumers := make([]fsb.Snooper, n)
	e.shardCons = make([]*emuShard, n)
	for s := 0; s < n; s++ {
		sh := &emuShard{e: e, cb: fsb.NewCB(e.cfg.ClockHz, e.cfg.SamplePeriod)}
		for b := s; b < len(e.banks); b += n {
			sh.owned = append(sh.owned, e.banks[b])
		}
		e.shardCons[s] = sh
		consumers[s] = sh
	}
	e.sharder = fsb.NewSharder(consumers, shardBatch)
	if e.cfg.Telemetry != nil {
		e.sharder.Instrument(e.cfg.Telemetry, "core_shard")
	}
	e.sharder.TraceSpan(e.cfg.Trace)
}

// closeSharder drains the shard workers and merges their CB partials
// into the producer's sample skeletons. A worker panic (a bug in the
// cache model) propagates as a panic here: sharded emulation must fail
// loudly, never publish half-merged counters.
func (e *Emulator) closeSharder() {
	if e.sharder == nil {
		return
	}
	err := e.sharder.Close()
	e.sharder = nil
	if err != nil {
		panic(fmt.Sprintf("dragonhead: sharded delivery failed: %v", err))
	}
	for si, sh := range e.shardCons {
		if len(sh.partials) != len(e.samples) {
			panic(fmt.Sprintf(
				"dragonhead: shard %d crossed %d CB boundaries, producer %d (sampling replicas diverged)",
				si, len(sh.partials), len(e.samples)))
		}
		for i, p := range sh.partials {
			e.samples[i].Accesses += p.accesses
			e.samples[i].Misses += p.misses
		}
	}
	e.shardCons = nil
}
