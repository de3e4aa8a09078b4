// Package oracle is the analytic cache engine: exact LRU results for
// every tracked cache geometry from one pass over the reference stream,
// via Mattson stack-distance analysis.
//
// Mattson's inclusion property says an LRU stack of depth A holds
// exactly the A most recently used lines, so a reference hits in an
// A-way set iff its stack distance within that set is < A. Partitioning
// line addresses by set index therefore turns one per-set LRU stack
// into the exact miss count of each tracked associativity at that set
// count — the classic single-pass answer to "simulate all cache sizes
// at once" that internal/stackdist already implements for the
// fully-associative case.
//
// Each tracked set count is a "family". A family only ever needs
// distances resolved up to its deepest tracked associativity, which
// picks between two per-set representations:
//
//   - Shallow families (the planner's set-associative sweeps, typically
//     8-16 ways) keep a bounded LRU recency stack per set in one flat
//     array: the stack holds the maxAssoc most recently used blocks of
//     the set, so a block's index IS its Mattson distance and anything
//     absent is provably deeper. A lookup is a short linear scan plus a
//     move-to-front copy — no maps, no trees, cache-friendly. A dense
//     array holds each set's top block again, so the probe most
//     requests end at reads one word per set.
//   - Deep families (fully-associative geometries) fall back to one
//     Fenwick-tree stackdist.Analyzer per set, O(log n) per reference at
//     any depth.
//
// Sets are bit-selected, so a family with more sets partitions one with
// fewer (Hill & Smith's set refinement) and a line's distance can only
// shrink as sets split. record visits the shallow families in that
// order: what one family finds bounds, and often settles, its
// neighbours' answers.
//
// Cold detection and dirty state are line-granular and therefore shared
// by every family: one open-addressed line table (block -> dirty
// bitmask) whose membership doubles as the first-touch set, consulted
// only by requests that need it (see charge). Its cells come in groups
// of eight neighbouring blocks, so a streamed region probes memory the
// previous probe already fetched.
//
// The engine shares Dragonhead's AF and CB state (fsb.AF, fsb.CB): it
// honors the start/stop emulation window, decodes control-message
// transactions, regulates each reference into line-granular requests,
// and (when sampling is enabled) snapshots cumulative counters on the
// same MsgCycles crossings as the CB, so per-sample miss series match
// the emulator exactly. Because the CC bank interleave is an exact
// partition of the monolithic set space, the engine's monolithic set
// indexing predicts the banked pipeline too — which is precisely the
// cross-check cosim -verify runs.
//
// Beyond miss counts, a Tracked handle (see Track) reconstructs the
// full cache.Stats of an LRU, unsectored geometry — including
// evictions and dirty writebacks — without simulating it: inclusion
// pins down exactly which accesses miss, eviction counts follow from
// per-set fill counts, and writebacks from a per-line dirty bitmask
// resolved at the evicted line's next reuse (or at end of trace via
// the final stacks).
package oracle

import (
	"fmt"
	"sort"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/trace"
)

// MaxTracked bounds Track handles per engine: the per-line dirty state
// is a single uint64 bitmask, one bit per tracked geometry. The planner
// sizes its analytic leg to it.
const MaxTracked = 64

// fastDepth is the deepest family served by the bounded-stack fast
// path; beyond it the move-to-front copy would outgrow the Fenwick
// analyzer's O(log n).
const fastDepth = 256

// fastBudget caps the fast path's footprint in uint64 slots: sets x
// maxAssoc stack slots plus one top key per set. It is twice the 2^22
// stack slots allowed before the top array existed, so every family
// that fit then (sets <= sets x maxAssoc <= 2^22) still does.
const fastBudget = 1 << 23

// setFamily holds the per-set distance state of one set count, plus the
// Tracked handles (at least one) that share it.
type setFamily struct {
	sets     uint64
	setMask  uint64
	maxAssoc int

	tracked []*Tracked

	// Representation, chosen at freeze time (first recorded request).
	fast bool

	// floor is the smallest distance at which a request needs the line
	// table: the least tracked associativity (a miss there reads and
	// resets the dirty bit; a first touch, beyond every stack, inserts).
	floor uint32

	// Fast path: per-set bounded LRU stacks (of block number plus one, so
	// an empty slot is zero and matches nothing) in one flat array, sets
	// x maxAssoc, and a copy of each stack's slot 0 in a dense array of
	// its own, so record's probe for the top reads one word per set.
	stack []uint64
	top   []uint64

	// Slow path: one Fenwick analyzer per touched set.
	perSet map[uint64]*stackdist.Analyzer
}

// freeze picks the family's representation; no geometry may be added
// afterwards (the engine guards on accesses > 0).
func (f *setFamily) freeze() {
	f.floor = uint32(f.maxAssoc)
	for _, t := range f.tracked {
		f.floor = min(f.floor, t.assoc32)
	}
	if f.maxAssoc <= fastDepth && f.sets*uint64(f.maxAssoc+1) <= fastBudget {
		f.fast = true
		f.stack = make([]uint64, f.sets*uint64(f.maxAssoc))
		f.top = make([]uint64, f.sets)
		return
	}
	f.perSet = make(map[uint64]*stackdist.Analyzer)
}

// touchFast records one request in the bounded-stack representation,
// given that the block's distance in this set is at least lo (and at
// least 1: the caller has checked the top). It returns the exact stack
// index when resident and maxAssoc otherwise — deeper or cold, which
// only the line table can tell apart.
func (f *setFamily) touchFast(set, key uint64, lo int) int {
	base := int(set) * f.maxAssoc
	s := f.stack[base : base+f.maxAssoc]
	f.top[set] = key
	for i := lo; i < len(s); i++ {
		if s[i] == key {
			copy(s[1:i+1], s[:i])
			s[0] = key
			return i
		}
	}
	// Not resident within maxAssoc: push the block on top (the LRU
	// block, or an empty slot, falls off).
	copy(s[1:], s[:len(s)-1])
	s[0] = key
	return f.maxAssoc
}

// touchSlow records one request in the Fenwick representation.
func (f *setFamily) touchSlow(set uint64, blk uint64) uint32 {
	a := f.perSet[set]
	if a == nil {
		// Line size 1 makes the analyzer's distances line-granular:
		// the engine already shifted addresses to block numbers.
		a = stackdist.New(1, f.maxAssoc)
		f.perSet[set] = a
	}
	// Within a set, distinct blocks are distinct lines; the stack
	// distance of blk among its set-mates is its LRU depth there.
	return a.Record(mem.Addr(blk))
}

// Engine predicts exact LRU results for a family of set-associative
// geometries sharing one line size. Register every geometry with Track
// before streaming references; then drive the engine as an fsb.Snooper
// (live bus or replay) and read each handle's Misses, Samples or Stats.
type Engine struct {
	lineSize  uint64
	lineShift uint

	// AF and CB state; the CB clock is zero, and never fires, until
	// EnableSampling.
	af fsb.AF
	cb fsb.CB

	// Stream-wide counters (geometry-independent: every LRU cache at
	// this line size observes the same line-granular request stream).
	accesses        uint64
	loads           uint64
	stores          uint64
	perCoreAccesses [cache.MaxCores]uint64

	families map[uint64]*setFamily
	// famList is registration order until freeze, then refinement order:
	// the nfast bounded-stack families coarse to fine, the Fenwick
	// families after them.
	famList []*setFamily
	nfast   int

	// finerBits[k] is the OR of the tracked bits of famList[k:nfast].
	// Nil until freeze.
	finerBits []uint64

	// lines holds every block touched with its dirty bitmask, one bit
	// per tracked geometry, engine-wide.
	lines        lineTable
	trackedCount int

	// dirtyLines[i] is the number of lines whose bit i is set, counted
	// by Tracked.Stats and good while accesses == dirtyAt.
	dirtyLines []uint64
	dirtyAt    uint64
}

// New returns an engine for the given line size (a power of two, at
// least 2 — the same constraint cache.Config imposes).
func New(lineSize uint64) (*Engine, error) {
	if lineSize < 2 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("oracle: line size %d is not a power of two >= 2", lineSize)
	}
	e := &Engine{
		lineSize: lineSize,
		families: make(map[uint64]*setFamily),
		lines:    newLineTable(),
	}
	for s := lineSize; s > 1; s >>= 1 {
		e.lineShift++
	}
	return e, nil
}

// EnableSampling turns on the CB mirror: on every MsgCycles crossing of
// the sample period, each Tracked geometry snapshots its cumulative
// counters, exactly as the Dragonhead CB does. Must be called before
// any event is recorded.
func (e *Engine) EnableSampling(clockHz, samplePeriod float64) error {
	if e.accesses > 0 || e.af.Cycles > 0 {
		return fmt.Errorf("oracle: EnableSampling after recording started")
	}
	if clockHz <= 0 || samplePeriod <= 0 {
		return fmt.Errorf("oracle: sampling needs positive clock (%g Hz) and period (%g s)", clockHz, samplePeriod)
	}
	e.cb = fsb.NewCB(clockHz, samplePeriod)
	return nil
}

// freeze fixes every family's representation and the order record
// visits them in.
func (e *Engine) freeze() {
	for _, f := range e.famList {
		f.freeze()
	}
	sort.SliceStable(e.famList, func(i, j int) bool {
		a, b := e.famList[i], e.famList[j]
		if a.fast != b.fast {
			return a.fast
		}
		return a.sets < b.sets
	})
	for e.nfast < len(e.famList) && e.famList[e.nfast].fast {
		e.nfast++
	}
	e.finerBits = make([]uint64, e.nfast+1)
	for k := e.nfast - 1; k >= 0; k-- {
		e.finerBits[k] = e.finerBits[k+1]
		for _, t := range e.famList[k].tracked {
			e.finerBits[k] |= t.bit
		}
	}
}

// record processes one line-granular request to block number blk.
func (e *Engine) record(blk uint64, store bool, core uint8) {
	if e.finerBits == nil {
		e.freeze()
	}
	e.accesses++
	e.perCoreAccesses[core]++
	if store {
		e.stores++
	} else {
		e.loads++
	}
	key := blk + 1
	fams := e.famList[:e.nfast]

	// The first family, coarse to fine, with the block on top of its set.
	// It and every finer family see distance 0: nothing moves, nothing
	// misses, and k == 0 — one compare — is the common request.
	k := 0
	for ; k < len(fams); k++ {
		if f := fams[k]; f.top[blk&f.setMask] == key {
			break
		}
	}
	var c *lineCell // the block's line-table cell, once something needs it
	if store {
		c = e.lines.at(key)
		c.mask |= e.finerBits[k]
	}

	// The coarser families, fine to coarse: a family's distance is a
	// lower bound on its coarser neighbour's, so each scan starts where
	// the last one ended, and a bound at or past a family's own depth
	// (they need not be equal) leaves only the push.
	lo := 1
	for i := k - 1; i >= 0; i-- {
		f := fams[i]
		d := f.touchFast(blk&f.setMask, key, lo)
		if d > lo {
			lo = d
		}
		c = e.charge(f, uint32(d), c, key, store, core)
	}
	for _, f := range e.famList[e.nfast:] {
		c = e.charge(f, f.touchSlow(blk&f.setMask, blk), c, key, store, core)
	}
}

// charge applies a request at distance d in f to f's tracked geometries.
// c is the block's line-table cell if the caller holds it; charge
// consults the table only if it must — which includes every first touch,
// since a cold block is beyond every stack — and returns the cell.
func (e *Engine) charge(f *setFamily, d uint32, c *lineCell, key uint64, store bool, core uint8) *lineCell {
	if d < f.floor && !store {
		return c
	}
	if c == nil {
		c = e.lines.at(key)
	}
	// By inclusion, the request misses in an A-way geometry iff its
	// distance is >= A (cold and deep always qualify). A miss whose line
	// was dirty at its previous access — never a cold one, whose cell is
	// new — means the line was evicted dirty during the reuse gap:
	// exactly one writeback of the simulated cache, charged here at
	// reuse time.
	for _, t := range f.tracked {
		if d >= t.assoc32 {
			t.misses++
			t.perCoreMisses[core]++
			if !store {
				t.loadMisses++
			}
			if c.mask&t.bit != 0 {
				t.writebacks++
			}
			// Refill resets the dirty bit to the filling access's kind.
			if store {
				c.mask |= t.bit
			} else {
				c.mask &^= t.bit
			}
		} else if store {
			c.mask |= t.bit
		}
	}
	return c
}

// OnRef implements fsb.Snooper: the AF stage. Control-message
// transactions are decoded and routed to OnMsg (raw codec streams carry
// them inline); out-of-window transactions are host noise and are
// dropped; everything else is regulated into line-granular requests
// exactly like Dragonhead.
func (e *Engine) OnRef(r trace.Ref) {
	if m, ok := fsb.DecodeMessage(r); ok {
		e.OnMsg(m)
		return
	}
	if !e.af.Open {
		e.af.Dropped++
		return
	}
	first, last := r.Units(e.lineShift)
	store := r.Kind == mem.Store
	for blk := first; blk <= last; blk++ {
		e.record(blk, store, r.Core)
	}
}

// OnBatch implements fsb.BatchSnooper: a run of bus events. An
// in-window transaction inside one line is one request and goes straight
// to record; messages, a closed window, zero sizes and straddlers take
// OnRef.
func (e *Engine) OnBatch(batch []trace.Ref) {
	for i := range batch {
		r := &batch[i]
		first := uint64(r.Addr) >> e.lineShift
		if e.af.Open && !fsb.IsMessage(*r) && r.Size != 0 &&
			(uint64(r.Addr)+uint64(r.Size)-1)>>e.lineShift == first {
			e.record(first, r.Kind == mem.Store, r.Core)
			continue
		}
		e.OnRef(*r)
	}
}

// OnMsg implements fsb.Snooper: the AF window plus the CB counter
// mirror (instructions retired, cycle-driven sample collection).
func (e *Engine) OnMsg(m fsb.Message) {
	e.af.Msg(m)
	for at, ok := e.cb.Due(e.af.Cycles); ok; at, ok = e.cb.Due(e.af.Cycles) {
		e.collect(at)
	}
}

// collect snapshots cumulative counters into every Tracked geometry at
// boundary at — the CB host read, mirrored.
func (e *Engine) collect(at uint64) {
	inst := e.af.Instructions()
	for _, f := range e.famList {
		for _, t := range f.tracked {
			t.samples = append(t.samples, Sample{
				Cycles:       at,
				Instructions: inst,
				Accesses:     e.accesses,
				Misses:       t.misses,
			})
		}
	}
}

// Accesses returns the number of in-window line-granular requests seen —
// which must equal the Accesses counter of every cache it predicts.
func (e *Engine) Accesses() uint64 { return e.accesses }

// Ignored returns the number of transactions dropped outside the
// start/stop window, mirroring Dragonhead's AF counter.
func (e *Engine) Ignored() uint64 { return e.af.Dropped }

// Instructions returns the total instructions retired across cores, per
// the latest inst-retired messages.
func (e *Engine) Instructions() uint64 { return e.af.Instructions() }
