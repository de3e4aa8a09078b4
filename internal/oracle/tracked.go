package oracle

import (
	"fmt"
	"math/bits"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
)

// Sample is one CB counter snapshot for a tracked geometry: the
// emulator's own sample type, so a planner-answered series is the same
// vocabulary as an emulated one and compares bit for bit.
type Sample = dragonhead.Sample

// Tracked is a per-configuration handle returned by Track: it carries
// running counters (misses, per-core misses, gap-observed writebacks,
// CB samples) for one geometry and reconstructs the geometry's full
// cache.Stats on demand.
type Tracked struct {
	eng     *Engine
	fam     *setFamily
	bit     uint64 // this geometry's bit in the engine's dirty bitmasks
	cfg     cache.Config
	assoc   int
	assoc32 uint32

	misses        uint64
	loadMisses    uint64
	writebacks    uint64 // evictions-while-dirty observed at reuse time
	perCoreMisses [cache.MaxCores]uint64
	samples       []Sample
}

// Track registers cfg and returns its handle: the engine's one way in.
// Only LRU, unsectored configurations qualify: inclusion (and with it
// the whole analytic derivation) holds for true LRU only, and sector
// valid bits add per-sector fill state the stack profile cannot see.
// Geometries sharing a set count share one family, whose depth is its
// deepest handle's associativity. Must be called before any reference
// is recorded.
func (e *Engine) Track(cfg cache.Config) (*Tracked, error) {
	if cfg.Repl != cache.LRU {
		return nil, fmt.Errorf("oracle: config %q uses %v replacement; only LRU is analytically expressible", cfg.Name, cfg.Repl)
	}
	if cfg.SectorSize != 0 {
		return nil, fmt.Errorf("oracle: config %q is sectored; sector fill state is not analytically expressible", cfg.Name)
	}
	if cfg.LineSize != e.lineSize {
		return nil, fmt.Errorf("oracle: config %q line size %d != engine line size %d",
			cfg.Name, cfg.LineSize, e.lineSize)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if e.accesses > 0 {
		return nil, fmt.Errorf("oracle: Track after recording started")
	}
	if e.trackedCount >= MaxTracked {
		return nil, fmt.Errorf("oracle: more than %d tracked geometries in one engine", MaxTracked)
	}
	lines := cfg.Size / cfg.LineSize
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = int(lines)
	}
	sets := lines / uint64(assoc)
	f := e.families[sets]
	if f == nil {
		f = &setFamily{sets: sets, setMask: sets - 1}
		e.families[sets] = f
		e.famList = append(e.famList, f)
	}
	f.maxAssoc = max(f.maxAssoc, assoc)
	t := &Tracked{
		eng:     e,
		fam:     f,
		bit:     1 << uint(e.trackedCount),
		cfg:     cfg,
		assoc:   assoc,
		assoc32: uint32(assoc),
	}
	e.trackedCount++
	f.tracked = append(f.tracked, t)
	return t, nil
}

// Config returns the configuration this handle tracks.
func (t *Tracked) Config() cache.Config { return t.cfg }

// Misses returns the running miss count.
func (t *Tracked) Misses() uint64 { return t.misses }

// Samples returns a copy of the CB time series collected so far
// (empty unless EnableSampling was called).
func (t *Tracked) Samples() []Sample {
	out := make([]Sample, len(t.samples))
	copy(out, t.samples)
	return out
}

// MPKI returns misses per 1000 retired instructions, mirroring
// dragonhead.Emulator.MPKI.
func (t *Tracked) MPKI() float64 {
	inst := t.eng.af.Instructions()
	if inst == 0 {
		return 0
	}
	return float64(t.misses) * 1000 / float64(inst)
}

// Stats reconstructs the full cache.Stats the simulated cache would
// report, without having simulated it:
//
//   - Accesses/Loads/Stores/PerCoreAccesses are geometry-independent
//     stream counters.
//   - Misses/LoadMisses/PerCoreMisses follow from inclusion (distance
//     >= assoc, or cold).
//   - SectorFetches = Misses (unsectored: one line fill per miss).
//   - Evictions: every miss fills a line and a set ends holding
//     min(assoc, distinct blocks) of them, so evictions = misses - that
//     sum over sets (per set: max(0, misses_set - assoc)). A bounded
//     stack holds min(maxAssoc, distinct blocks) keys, so a set holds
//     its stack's non-zero slots among the first assoc.
//   - Writebacks: gap-observed writebacks (counted in record at reuse
//     time) plus lines that end the trace dirty and evicted — those
//     left the cache dirty after their last access, with no reuse left
//     to observe it. A line is still resident at the end iff its final
//     stack depth is < assoc, which both representations can answer:
//     the bounded stack holds the maxAssoc >= assoc shallowest lines
//     exactly, and the Fenwick path enumerates final depths directly.
//   - TrafficBytes = LineSize x (fills + writebacks).
//
// Stats walks the family's per-set state; the line table is walked
// once for all tracked geometries (see dirtyCounts). Call it after the
// stream is delivered (not a hot-path accessor).
func (t *Tracked) Stats() cache.Stats {
	e := t.eng
	s := cache.Stats{
		Accesses:        e.accesses,
		Misses:          t.misses,
		Loads:           e.loads,
		Stores:          e.stores,
		LoadMisses:      t.loadMisses,
		SectorFetches:   t.misses,
		PerCoreAccesses: e.perCoreAccesses,
		PerCoreMisses:   t.perCoreMisses,
	}
	f := t.fam
	assoc := uint64(t.assoc)
	wb := t.writebacks
	if f.fast {
		// A set ends holding the non-zero keys among its first assoc
		// stack slots. Dirty lines evicted after their last access: all
		// dirty lines, minus the dirty ones still held.
		var held, resident uint64
		for base := 0; base < len(f.stack); base += f.maxAssoc {
			for _, key := range f.stack[base : base+t.assoc] {
				if key != 0 {
					held++
					if e.lines.mask(key)&t.bit != 0 {
						resident++
					}
				}
			}
		}
		s.Evictions = t.misses - held
		wb += e.dirtyCounts()[bits.TrailingZeros64(t.bit)] - resident
	} else {
		for _, a := range f.perSet {
			if m := a.MissesForLines(t.assoc); m > assoc {
				s.Evictions += m - assoc
			}
			a.FinalDepths(func(blk uint64, depth int) {
				if depth >= t.assoc && e.lines.mask(blk+1)&t.bit != 0 {
					wb++
				}
			})
		}
	}
	s.Writebacks = wb
	s.TrafficBytes = e.lineSize * (t.misses + wb)
	return s
}

// dirtyCounts returns, per tracked bit, the number of lines that are
// dirty in that geometry: one walk of the line table answers every
// handle's Stats, and is redone only if a request was recorded since.
func (e *Engine) dirtyCounts() []uint64 {
	if e.dirtyLines == nil || e.dirtyAt != e.accesses {
		e.dirtyLines = make([]uint64, MaxTracked)
		for _, c := range e.lines.cells {
			for m := c.mask; m != 0; m &= m - 1 {
				e.dirtyLines[bits.TrailingZeros64(m)]++
			}
		}
		e.dirtyAt = e.accesses
	}
	return e.dirtyLines
}
