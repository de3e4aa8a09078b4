// Package cache implements the configurable set-associative cache model
// that backs both the Dragonhead LLC emulator and the per-core L1/L2
// hierarchy. It matches the algorithm space of the paper's FPGA emulator:
// cache sizes from 1 MB-equivalent down to small L1s, line sizes from
// 64 B to 4096 B, and true-LRU replacement. Write policy is
// write-back/write-allocate.
//
// The set metadata is laid out data-oriented (struct-of-arrays): tags,
// replacement ranks, dirty/prefetch flags, and sector bitmasks live in
// separate flat arrays, so the lookup loop walks densely packed 8-byte
// tags (an 8-way set is exactly one cache line of tag state) instead of
// striding over 24-byte line structs. For associativities up to 64 the
// LRU state is a packed rank vector — one byte per way, eight ways per
// 64-bit word — updated with branch-free compare-mask (SWAR) arithmetic
// instead of rotating the ways: a hit promotes in O(assoc/8) ALU ops
// with no data movement, which is what lifts cache.Access into the
// several-hundred-Mrefs/s range (see DESIGN.md §5).
package cache

import (
	"fmt"
	"math/bits"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// MaxCores bounds the per-core statistics arrays. The paper scales
// virtual platforms from 1 to 32 cores and projects to 128.
const MaxCores = 128

// Policy selects the replacement algorithm. The paper's FPGA emulator
// shipped with true LRU but could be reprogrammed with "different kinds
// of cache algorithms"; the software model offers the classic trio.
type Policy uint8

const (
	// LRU is true least-recently-used (the paper's configuration).
	LRU Policy = iota
	// FIFO evicts in fill order, ignoring hits.
	FIFO
	// Random evicts a pseudo-random way (deterministic xorshift).
	Random
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Config describes one cache.
type Config struct {
	// Name labels the cache in reports ("LLC", "DL1", ...).
	Name string
	// Size is the total capacity in bytes.
	Size uint64
	// LineSize is the block size in bytes; must be a power of two.
	LineSize uint64
	// Assoc is the set associativity. 0 means fully associative.
	Assoc int
	// Repl is the replacement policy (zero value = LRU).
	Repl Policy
	// SectorSize, if non-zero, makes lines sectored: tags are kept at
	// LineSize granularity but data transfers at SectorSize granularity
	// with per-sector valid bits. Sectoring keeps the spatial-locality
	// benefit of the paper's large lines (Figure 7) without paying the
	// full-line bandwidth on sparse accesses. Must be a power of two
	// dividing LineSize, with at most 64 sectors per line.
	SectorSize uint64
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Size == 0 {
		return fmt.Errorf("cache %q: size must be positive", c.Name)
	}
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.LineSize < 2 {
		// A line shift of at least one guarantees block numbers never
		// reach the reserved invalid-tag sentinel.
		return fmt.Errorf("cache %q: line size %d below minimum of 2 bytes", c.Name, c.LineSize)
	}
	if c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.Size, c.LineSize)
	}
	lines := c.Size / c.LineSize
	assoc := uint64(c.Assoc)
	if c.Assoc == 0 {
		assoc = lines // fully associative
	}
	if assoc > lines {
		return fmt.Errorf("cache %q: associativity %d exceeds %d lines", c.Name, c.Assoc, lines)
	}
	if lines%assoc != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by associativity %d", c.Name, lines, assoc)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, sets)
	}
	if c.Repl > Random {
		return fmt.Errorf("cache %q: unknown replacement policy %d", c.Name, c.Repl)
	}
	if c.SectorSize != 0 {
		if c.SectorSize&(c.SectorSize-1) != 0 {
			return fmt.Errorf("cache %q: sector size %d is not a power of two", c.Name, c.SectorSize)
		}
		if c.LineSize%c.SectorSize != 0 {
			return fmt.Errorf("cache %q: sector size %d does not divide line size %d",
				c.Name, c.SectorSize, c.LineSize)
		}
		if c.LineSize/c.SectorSize > 64 {
			return fmt.Errorf("cache %q: more than 64 sectors per line", c.Name)
		}
	}
	return nil
}

// Stats holds event counters for one cache, in aggregate and per core.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Loads      uint64
	Stores     uint64
	LoadMisses uint64
	Writebacks uint64
	Evictions  uint64
	// SectorFetches counts data transfers (one per miss; for sectored
	// caches, also one per sector fill into a resident line).
	SectorFetches uint64
	// TrafficBytes is the fill+writeback traffic this cache generated
	// toward the next level.
	TrafficBytes uint64

	// PerCore indexes accesses/misses by issuing core.
	PerCoreAccesses [MaxCores]uint64
	PerCoreMisses   [MaxCores]uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MPKI returns misses per 1000 of the given instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses) * 1000 / float64(instructions)
}

// Add accumulates s += o, counter by counter.
func (s *Stats) Add(o *Stats) { s.AddScaled(o, 1) }

// AddScaled accumulates s += w*o, counter by counter, the per-core
// arrays included.
func (s *Stats) AddScaled(o *Stats, w uint64) {
	s.Accesses += w * o.Accesses
	s.Misses += w * o.Misses
	s.Loads += w * o.Loads
	s.Stores += w * o.Stores
	s.LoadMisses += w * o.LoadMisses
	s.Writebacks += w * o.Writebacks
	s.Evictions += w * o.Evictions
	s.SectorFetches += w * o.SectorFetches
	s.TrafficBytes += w * o.TrafficBytes
	for c := range s.PerCoreAccesses {
		s.PerCoreAccesses[c] += w * o.PerCoreAccesses[c]
		s.PerCoreMisses[c] += w * o.PerCoreMisses[c]
	}
}

// Sub returns s - o, counter by counter. Counters only grow, so
// subtracting an earlier snapshot never wraps in real use; on other
// input it wraps like any uint64 arithmetic: it adds -1 × o modulo
// 2^64.
func (s Stats) Sub(o *Stats) Stats {
	s.AddScaled(o, ^uint64(0))
	return s
}

// invalidTag marks an empty way. Line numbers are addresses shifted
// right by lineShift >= 1 (Validate requires LineSize >= 2), so no
// reachable block number collides with the sentinel — which lets the
// lookup loop test one word per way instead of a valid bit plus a tag.
const invalidTag = ^uint64(0)

// Per-way flag bits (the flags array).
const (
	// flagDirty marks a modified line (write-back on eviction).
	flagDirty = 1 << 0
	// flagPF marks a line inserted by a prefetch and not yet demand-hit;
	// the timing model charges such first hits a late-prefetch latency.
	flagPF = 1 << 1
)

// SWAR constants for the packed-rank LRU update: one rank byte per way,
// eight ways per 64-bit word. All real ranks are < 128, so byte-wise
// unsigned compares reduce to masked subtraction with no inter-byte
// borrow.
const (
	swarL = 0x0101010101010101 // low bit of every byte
	swarH = 0x8080808080808080 // high bit of every byte
	// fillerRank pads the unused bytes of a set's last rank word when
	// assoc is not a multiple of 8. It is >= any real associativity
	// (<= 64) so filler bytes never compare below a promotion rank and
	// never match the victim rank — the SWAR ops leave them untouched.
	fillerRank = 0x7f
)

// maxRankAssoc bounds the packed-rank (SWAR) representation: rank bytes
// hold values < assoc, and the compare-mask arithmetic needs them under
// 0x80. Larger associativities (the fully-associative analysis configs)
// fall back to physically recency-ordered ways.
const maxRankAssoc = 64

// Cache is a set-associative write-back cache. The metadata is a
// struct-of-arrays: tags, flags, sector masks, and replacement ranks in
// separate flat slices indexed set*assoc+way.
//
// Two replacement-state representations share the layout:
//
//   - assoc <= 64 (every real LLC/L1/L2 geometry): ways sit at fixed
//     positions and recency lives in a packed rank vector, one byte per
//     way (0 = MRU, assoc-1 = the LRU victim). A hit promotes with
//     branch-free compare-mask arithmetic — for assoc <= 8 a single
//     64-bit word update — instead of rotating line metadata.
//   - assoc > 64: ways are kept physically in recency order (index 0 =
//     MRU) and a hit rotates the flat arrays, exactly the pre-rank
//     behavior.
//
// Both produce identical statistics and snapshots; the differential
// oracle suite in internal/verify pins them against an independent
// reference model.
type Cache struct {
	// Hot lookup state first: every access reads these, so they share
	// the Cache struct's first cache lines instead of sitting behind
	// the multi-KB Stats block.
	setMask   uint64
	lineShift uint
	assoc     int
	repl      Policy // copy of cfg.Repl on the hot line
	rankPath  bool   // packed-rank replacement state (assoc <= 64)
	rankWords int    // 64-bit rank words per set (rank path)
	// pfLive counts resident lines with the prefetch bit set. While it
	// is zero — always, unless a prefetcher is wired in front — a load
	// hit has no flag side effects (nothing to clear, nothing to
	// dirty), so the fast path skips the flags array read entirely.
	pfLive int
	// runN/runLoads are AccessBanked's deferred hit-side tallies: the
	// accesses and loads this bank took in the current core's run (in
	// AccessChain, the run's stops at this rung). Zero outside a call.
	runN, runLoads uint64

	tags    []uint64 // nsets*assoc block numbers (invalidTag = empty)
	flags   []uint8  // nsets*assoc flagDirty|flagPF bits
	sectors []uint64 // nsets*assoc per-sector valid masks; nil unless sectored
	ranks   []uint64 // nsets*rankWords packed rank bytes (rank path only)
	// mruTag/mru cache each set's most recent hit or fill (rank path
	// only): the block number and the way holding it. Fixed way
	// positions lose the old recency-ordered layout's property that
	// temporally local hits sit at scan index 0; the hint restores the
	// one-compare fast path — and because the hint holds the tag
	// itself, a repeat access is a single independent load from an
	// 8-byte-per-set array rather than a dependent walk into the tag
	// array. A hint hit under LRU needs no promotion: the hinted way
	// was rank 0 when hinted and only loses rank 0 to an event that
	// rewrites the hint.
	mruTag []uint64
	mru    []uint8

	sectorShift uint   // == lineShift when unsectored
	secPerLine  uint64 // 1 when unsectored
	rng         uint64 // xorshift state for the Random policy
	cfg         Config
	stats       Stats
}

// New builds a cache from cfg. It returns an error if cfg is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.Size / cfg.LineSize
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = int(lines)
	}
	nsets := lines / uint64(assoc)
	c := &Cache{
		cfg:      cfg,
		repl:     cfg.Repl,
		assoc:    assoc,
		setMask:  nsets - 1,
		rankPath: assoc <= maxRankAssoc,
		rng:      cfg.Size ^ cfg.LineSize<<20 ^ 0x9E3779B97F4A7C15,
	}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.lineShift++
	}
	c.sectorShift = c.lineShift
	c.secPerLine = 1
	if cfg.SectorSize != 0 {
		c.sectorShift = 0
		for s := cfg.SectorSize; s > 1; s >>= 1 {
			c.sectorShift++
		}
		c.secPerLine = cfg.LineSize / cfg.SectorSize
	}
	c.tags = make([]uint64, lines)
	c.flags = make([]uint8, lines)
	if c.secPerLine > 1 {
		c.sectors = make([]uint64, lines)
	}
	if c.rankPath {
		c.rankWords = (assoc + 7) / 8
		c.ranks = make([]uint64, nsets*uint64(c.rankWords))
		c.mruTag = make([]uint64, nsets)
		c.mru = make([]uint8, nsets)
	}
	c.clear()
	return c, nil
}

// clear resets the metadata arrays to the empty-cache state.
func (c *Cache) clear() {
	c.pfLive = 0
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.flags {
		c.flags[i] = 0
	}
	for i := range c.sectors {
		c.sectors[i] = 0
	}
	for i := range c.mruTag {
		c.mruTag[i] = invalidTag
		c.mru[i] = 0
	}
	if c.rankPath {
		nsets := len(c.tags) / c.assoc
		for s := 0; s < nsets; s++ {
			for k := 0; k < c.rankWords; k++ {
				var w uint64
				for b := 0; b < 8; b++ {
					way := k*8 + b
					r := uint64(fillerRank)
					if way < c.assoc {
						// Empty ways start in way order: way assoc-1 holds
						// the LRU rank, so fills consume invalid ways first
						// — the same victim sequence as recency-order fill.
						r = uint64(way)
					}
					w |= r << (8 * b)
				}
				c.ranks[s*c.rankWords+k] = w
			}
		}
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Access performs one reference of the given size, splitting it across
// cache lines (and sectors, when sectored) when it straddles a
// boundary. It returns the number of misses incurred.
func (c *Cache) Access(addr mem.Addr, size uint8, kind mem.Kind, core uint8) int {
	// One bound covers both off-ramps: a zero size wraps the end offset
	// to 2^64-1, and a straddling reference pushes it past the line —
	// either way the per-unit route takes over (as it does for sectored
	// caches).
	endOff := uint64(addr)&(c.cfg.LineSize-1) + uint64(size) - 1
	if c.sectors != nil || endOff >= c.cfg.LineSize {
		return accessUnits([]*Cache{c}, trace.Ref{Addr: addr, Size: size, Kind: kind, Core: core})
	}
	blk := uint64(addr) >> c.lineShift
	// The overwhelmingly common case — an unsectored cache and a
	// reference inside one line — runs here with no further calls:
	// the same counters, replacement updates, and flag effects as
	// touchLine with secBit 1, with the sector plumbing and the
	// prefetch-attribution return compiled out. Touch lands here too:
	// the hierarchy's levels and the Dragonhead's per-event route
	// (OnRef, the private organisation) pay this body plus one frame.
	set := blk & c.setMask
	base := int(set) * c.assoc
	st := &c.stats
	st.Accesses++
	st.PerCoreAccesses[core]++
	if kind == mem.Load {
		st.Loads++
	} else {
		st.Stores++
	}

	if c.rankPath {
		if c.mruTag[set] == blk {
			// Repeat access: rank already 0 under LRU, no tag-array walk.
			if kind == mem.Load && c.pfLive == 0 {
				return 0 // no flag side effects possible
			}
			c.hitFlags(base+int(c.mru[set]), kind)
			return 0
		}
		tags := c.tags[base : base+c.assoc]
		for i, t := range tags {
			if t != blk {
				continue
			}
			if c.repl == LRU {
				c.promote(int(set), i)
			}
			c.mruTag[set] = blk
			c.mru[set] = uint8(i)
			if kind != mem.Load || c.pfLive != 0 {
				c.hitFlags(base+i, kind)
			}
			return 0
		}
	} else {
		tags := c.tags[base : base+c.assoc]
		for i, t := range tags {
			if t != blk {
				continue
			}
			if c.repl == LRU && i > 0 {
				c.rotate(base, i)
				i = 0
			}
			if kind != mem.Load || c.pfLive != 0 {
				c.hitFlags(base+i, kind)
			}
			return 0
		}
	}

	c.missAccounting(kind, core)
	st.SectorFetches++
	st.TrafficBytes += c.cfg.LineSize
	c.insert(int(set), base, blk, kind == mem.Store, false, 1)
	return 1
}

// accessUnits is the per-unit route for sectored caches, straddling
// references, and the zero-size clamp — everything off the fast paths.
// It splits the reference into units (sectors when sectored, else
// lines) and touches each in its bank of the address-interleaved banks
// (see AccessBanked), with the bank bits stripped from the block number.
func accessUnits(banks []*Cache, r trace.Ref) int {
	c0 := banks[0]
	bankMask := uint64(len(banks) - 1)
	bankShift := uint(bits.TrailingZeros(uint(len(banks))))
	first, last := r.Units(c0.sectorShift)
	misses := 0
	for s := first; s <= last; s++ {
		blk := s >> (c0.lineShift - c0.sectorShift)
		secBit := uint64(1) << (s & (c0.secPerLine - 1))
		if miss, _ := banks[blk&bankMask].touchLine(blk>>bankShift, secBit, r.Kind, r.Core); miss {
			misses++
		}
	}
	return misses
}

// hitFlags applies the flag side effects of a hit on the way at flat
// index idx: clear the prefetch bit (bookkeeping pfLive), set dirty on
// stores, and write the byte back only when it changed.
func (c *Cache) hitFlags(idx int, kind mem.Kind) {
	f := c.flags[idx]
	nf := f &^ flagPF
	if kind == mem.Store {
		nf |= flagDirty
	}
	if nf != f {
		if f&flagPF != 0 {
			c.pfLive--
		}
		c.flags[idx] = nf
	}
}

// secBitOf returns the sector valid-bit for addr (1 when unsectored).
func (c *Cache) secBitOf(addr mem.Addr) uint64 {
	if c.secPerLine == 1 {
		return 1
	}
	return 1 << ((uint64(addr) >> c.sectorShift) & (c.secPerLine - 1))
}

// AccessRef performs the reference described by r.
func (c *Cache) AccessRef(r trace.Ref) int {
	return c.Access(r.Addr, r.Size, r.Kind, r.Core)
}

// AccessBatch applies a batch of references in order and returns the
// total misses incurred: AccessBanked over this one cache. Final
// statistics are identical to calling AccessRef per element.
func (c *Cache) AccessBatch(refs []trace.Ref) int {
	return AccessBanked([]*Cache{c}, refs)
}

// AccessBanked applies a stretch of references, in order, to an
// address-interleaved set of caches and returns the misses incurred.
// len(banks) is a power of two n and the banks are built from one
// Config, names aside: bank b holds the lines whose block number is
// b mod n and sees the block number with those bits stripped
// (block >> log2 n) — the Dragonhead's CC interleave, and with one bank
// the cache itself.
// The result is exactly that of splitting every reference into units
// (lines, or sectors when sectored), stripping the bank bits and
// touching each unit's bank in arrival order: each bank's Stats,
// contents and Random stream.
//
// The kernel walks the stretch once and routes each reference to its
// bank inside the loop. Because no observer can read Stats mid-call,
// the hit-side counters (accesses, loads/stores, per-core accesses)
// are tallied per bank as a run of the current core and flushed at a
// core switch and at return — the DEX scheduler emits long single-core
// runs — instead of paying three read-modify-write chains through
// Stats per reference. Straddlers, zero sizes, sectored lines and
// associativities above 64 take the per-unit route (accessUnits),
// which does its own exact accounting outside the tallies.
func AccessBanked(banks []*Cache, refs []trace.Ref) int {
	c0 := banks[0]
	misses := 0
	if c0.sectors != nil || !c0.rankPath {
		for i := range refs {
			misses += accessUnits(banks, refs[i])
		}
		return misses
	}
	lineSize, lineShift := c0.cfg.LineSize, c0.lineShift
	bankMask := uint64(len(banks) - 1)
	bankShift := uint(bits.TrailingZeros(uint(len(banks))))
	core := uint8(0) // every bank's pending run belongs to this core
next:
	for i := range refs {
		r := &refs[i]
		if uint64(r.Addr)&(lineSize-1)+uint64(r.Size)-1 >= lineSize {
			misses += accessUnits(banks, *r)
			continue
		}
		if r.Core != core {
			flushRuns(banks, core)
			core = r.Core
		}
		line := uint64(r.Addr) >> lineShift
		c := banks[line&bankMask]
		blk := line >> bankShift
		c.runN++
		if r.Kind == mem.Load {
			c.runLoads++
		}
		set := blk & c.setMask
		if c.mruTag[set] == blk {
			if r.Kind != mem.Load || c.pfLive != 0 {
				c.hitFlags(int(set)*c.assoc+int(c.mru[set]), r.Kind)
			}
			continue
		}
		base := int(set) * c.assoc
		for w, t := range c.tags[base : base+c.assoc] {
			if t != blk {
				continue
			}
			if c.repl == LRU {
				c.promote(int(set), w)
			}
			c.mruTag[set] = blk
			c.mru[set] = uint8(w)
			if r.Kind != mem.Load || c.pfLive != 0 {
				c.hitFlags(base+w, r.Kind)
			}
			continue next
		}
		// Miss-side counters are rare enough to stay direct.
		c.missAccounting(r.Kind, r.Core)
		c.stats.SectorFetches++
		c.stats.TrafficBytes += lineSize
		c.insert(int(set), base, blk, r.Kind == mem.Store, false, 1)
		misses++
	}
	flushRuns(banks, core)
	return misses
}

// flushRuns moves every bank's pending run, which core issued, into its
// Stats.
func flushRuns(banks []*Cache, core uint8) {
	for _, c := range banks {
		st := &c.stats
		st.Accesses += c.runN
		st.PerCoreAccesses[core] += c.runN
		st.Loads += c.runLoads
		st.Stores += c.runN - c.runLoads
		c.runN, c.runLoads = 0, 0
	}
}

// AccessChain leaves every bank exactly as AccessBanked over each rung
// alone would. rungs[k] is one AccessBanked bank set of LRU caches; the
// rungs share line size, 1 to 64 ways and bank count, and grow strictly,
// smallest first. A reference stops at the first rung whose MRU hint it
// hits with no flag effect (a load or a store to a dirty line, no line
// prefetched): no larger rung can change, and each is owed only the
// count, at the next flush (DESIGN.md §5).
func AccessChain(rungs [][]*Cache, refs []trace.Ref) {
	c0 := rungs[0][0]
	lineSize, lineShift := c0.cfg.LineSize, c0.lineShift
	bankMask := uint64(len(rungs[0]) - 1)
	bankShift := uint(bits.TrailingZeros(uint(len(rungs[0]))))
	core := uint8(0) // every rung's pending stops belong to this core
	for i := range refs {
		r := &refs[i]
		if uint64(r.Addr)&(lineSize-1)+uint64(r.Size)-1 >= lineSize {
			for _, banks := range rungs {
				accessUnits(banks, *r)
			}
			continue
		}
		if r.Core != core {
			flushChain(rungs, core)
			core = r.Core
		}
		line := uint64(r.Addr) >> lineShift
		bank, blk := line&bankMask, line>>bankShift
		for _, banks := range rungs {
			c := banks[bank]
			set := blk & c.setMask
			if c.mruTag[set] == blk && c.pfLive == 0 &&
				(r.Kind == mem.Load || c.flags[int(set)*c.assoc+int(c.mru[set])]&flagDirty != 0) {
				c.runN++ // a stop, pending as the run
				if r.Kind == mem.Load {
					c.runLoads++
				}
				break
			}
			c.touchLine(blk, 1, r.Kind, r.Core)
		}
	}
	flushChain(rungs, core)
}

// flushChain owes each rung's pending stops to the same bank of every
// larger rung, then flushes every rung's run, which core issued.
func flushChain(rungs [][]*Cache, core uint8) {
	for k := 1; k < len(rungs); k++ {
		for b, c := range rungs[k] {
			c.runN += rungs[k-1][b].runN // rung k-1's already holds every smaller rung's
			c.runLoads += rungs[k-1][b].runLoads
		}
	}
	for _, banks := range rungs {
		flushRuns(banks, core)
	}
}

// Touch performs a line-granular access (used by prefetchers and by
// upper levels forwarding whole-line fills). It returns true on miss.
func (c *Cache) Touch(addr mem.Addr, kind mem.Kind, core uint8) bool {
	// A size-1 access is exactly a line-granular touch: same set, same
	// sector bit, never straddles.
	return c.Access(addr, 1, kind, core) != 0
}

// TouchPF is Touch plus prefetch attribution: pfHit reports that the
// access is the first demand hit on a line a prefetch brought in.
func (c *Cache) TouchPF(addr mem.Addr, kind mem.Kind, core uint8) (miss, pfHit bool) {
	return c.touchLine(uint64(addr)>>c.lineShift, c.secBitOf(addr), kind, core)
}

// Contains reports whether the line holding addr is resident, without
// touching LRU state or counters.
func (c *Cache) Contains(addr mem.Addr) bool {
	blk := uint64(addr) >> c.lineShift
	base := int(blk&c.setMask) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for _, t := range tags {
		if t == blk {
			return true
		}
	}
	return false
}

// touchLine performs the lookup and returns (miss, first-hit-on-prefetch).
// secBit identifies the accessed sector within the line (always 1 for
// unsectored caches).
func (c *Cache) touchLine(blk uint64, secBit uint64, kind mem.Kind, core uint8) (bool, bool) {
	set := blk & c.setMask
	base := int(set) * c.assoc
	st := &c.stats
	st.Accesses++
	st.PerCoreAccesses[core]++
	if kind == mem.Load {
		st.Loads++
	} else {
		st.Stores++
	}

	tags := c.tags[base : base+c.assoc]
	way := -1
	if c.rankPath {
		// Repeat-access fast path (see the mruTag field comment).
		if c.mruTag[set] == blk {
			way = int(c.mru[set])
		} else {
			for i, t := range tags {
				if t != blk {
					continue
				}
				if c.repl == LRU {
					c.promote(int(set), i)
				}
				c.mruTag[set] = blk
				c.mru[set] = uint8(i)
				way = i
				break
			}
		}
	} else {
		for i, t := range tags {
			if t != blk {
				continue
			}
			if c.repl == LRU && i > 0 {
				c.rotate(base, i)
				i = 0
			}
			way = i
			break
		}
	}
	if way >= 0 {
		// Hit effects: clear the prefetch bit, set dirty on stores, and
		// write the flag byte back only when it changed — the steady
		// state is a pure load. A sectored tag hit whose sector is absent
		// then fetches that sector as a miss.
		idx := base + way
		f := c.flags[idx]
		pfHit := f&flagPF != 0
		nf := f &^ flagPF
		if kind == mem.Store {
			nf |= flagDirty
		}
		if nf != f {
			if pfHit {
				c.pfLive--
			}
			c.flags[idx] = nf
		}
		if c.sectors != nil && c.sectors[idx]&secBit == 0 {
			// Tag hit, data absent: fetch just this sector.
			c.sectors[idx] |= secBit
			c.missAccounting(kind, core)
			st.SectorFetches++
			st.TrafficBytes += c.cfg.SectorSize
			return true, pfHit
		}
		return false, pfHit
	}

	// Miss: pick a victim per policy, evict, fill one sector (or the
	// whole line when unsectored).
	c.missAccounting(kind, core)
	st.SectorFetches++
	if c.secPerLine > 1 {
		st.TrafficBytes += c.cfg.SectorSize
	} else {
		st.TrafficBytes += c.cfg.LineSize
	}
	c.insert(int(set), base, blk, kind == mem.Store, false, secBit)
	return true, false
}

// promote moves way's rank to 0 (MRU), aging every way that was more
// recent. The update is compare-mask (SWAR) arithmetic over the set's
// packed rank words — for assoc <= 8, one word and no loop-carried
// branches: bytes below the hit rank gain one, the hit byte clears.
func (c *Cache) promote(set, way int) {
	base := set * c.rankWords
	word := base + way>>3
	shift := uint(way&7) * 8
	r := (c.ranks[word] >> shift) & 0xff
	if r == 0 {
		return // already MRU — the common case for these workloads
	}
	rb := uint64(swarL) * r
	for k := base; k < base+c.rankWords; k++ {
		x := c.ranks[k]
		lt := ^((x | swarH) - rb) & swarH // high bit set where rank < r
		c.ranks[k] = x + lt>>7
	}
	c.ranks[word] &^= 0xff << shift
}

// rotate moves way i of the set at base to slot 0, shifting [0,i) down —
// the recency-order path for assoc > 64. Operating on the flat arrays,
// the copies move 8-byte tags and 1-byte flags instead of line structs.
func (c *Cache) rotate(base, i int) {
	tag := c.tags[base+i]
	copy(c.tags[base+1:base+i+1], c.tags[base:base+i])
	c.tags[base] = tag
	f := c.flags[base+i]
	copy(c.flags[base+1:base+i+1], c.flags[base:base+i])
	c.flags[base] = f
	if c.sectors != nil {
		s := c.sectors[base+i]
		copy(c.sectors[base+1:base+i+1], c.sectors[base:base+i])
		c.sectors[base] = s
	}
}

// missAccounting bumps the miss counters.
func (c *Cache) missAccounting(kind mem.Kind, core uint8) {
	c.stats.Misses++
	c.stats.PerCoreMisses[core]++
	if kind == mem.Load {
		c.stats.LoadMisses++
	}
}

// insert places a new line in the set, evicting per the replacement
// policy. For LRU and FIFO the newcomer becomes rank 0 / slot 0 and
// every other way ages by one; Random replaces a pseudo-random way in
// place without touching recency state.
func (c *Cache) insert(set, base int, blk uint64, dirty, pf bool, secBits uint64) {
	var idx int
	switch {
	case c.repl == Random:
		idx = base + c.randWay(c.assoc)
	case c.rankPath:
		idx = base + c.victimAndAge(set)
	default:
		idx = base + c.assoc - 1
	}
	if c.rankPath {
		c.mruTag[set] = blk
		c.mru[set] = uint8(idx - base)
	}
	if c.tags[idx] != invalidTag {
		c.stats.Evictions++
		if c.flags[idx]&flagDirty != 0 {
			c.stats.Writebacks++
			c.stats.TrafficBytes += c.cfg.LineSize
		}
		if c.flags[idx]&flagPF != 0 {
			c.pfLive--
		}
	}
	if pf {
		c.pfLive++
	}
	if !c.rankPath && c.repl != Random {
		// Order path: shift the set down one slot and fill slot 0.
		copy(c.tags[base+1:base+c.assoc], c.tags[base:base+c.assoc-1])
		copy(c.flags[base+1:base+c.assoc], c.flags[base:base+c.assoc-1])
		if c.sectors != nil {
			copy(c.sectors[base+1:base+c.assoc], c.sectors[base:base+c.assoc-1])
		}
		idx = base
	}
	c.tags[idx] = blk
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if pf {
		f |= flagPF
	}
	c.flags[idx] = f
	if c.sectors != nil {
		c.sectors[idx] = secBits
	}
}

// victimAndAge finds the LRU way (rank assoc-1), ages every real way by
// one, and returns the victim's way index with its rank cleared to 0 —
// the rank-path fill. One SWAR pass over the set's rank words does both
// the equality scan and the increment.
func (c *Cache) victimAndAge(set int) int {
	base := set * c.rankWords
	tgt := uint64(swarL) * uint64(c.assoc-1)
	ab := uint64(swarL) * uint64(c.assoc)
	victim := -1
	for k := 0; k < c.rankWords; k++ {
		x := c.ranks[base+k]
		if victim < 0 {
			// Zero-byte scan on x ^ tgt: exactly one byte matches (ranks
			// are a permutation of 0..assoc-1; filler bytes never match).
			y := x ^ tgt
			if z := (y - swarL) & ^y & swarH; z != 0 {
				victim = k*8 + bits.TrailingZeros64(z)/8
			}
		}
		lt := ^((x | swarH) - ab) & swarH // every real way ranks < assoc
		c.ranks[base+k] = x + lt>>7
	}
	c.ranks[base+victim>>3] &^= 0xff << (uint(victim&7) * 8)
	return victim
}

// randWay returns a deterministic pseudo-random way index.
func (c *Cache) randWay(n int) int {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return int(c.rng % uint64(n))
}

// Fill inserts the line containing addr as clean at MRU without touching
// the demand counters — the path prefetch fills take. It returns false
// if the line was already resident (the prefetch was useless); a
// resident line is left in place with its LRU position unchanged, as
// hardware prefetchers do not promote on redundant fills.
func (c *Cache) Fill(addr mem.Addr, core uint8) bool {
	blk := uint64(addr) >> c.lineShift
	set := blk & c.setMask
	base := int(set) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for _, t := range tags {
		if t == blk {
			return false
		}
	}
	// Prefetches transfer the whole line (all sectors valid).
	c.stats.SectorFetches++
	c.stats.TrafficBytes += c.cfg.LineSize
	c.insert(int(set), base, blk, false, true, ^uint64(0))
	return true
}

// rankOf reads the packed rank byte of one way (rank path only).
func (c *Cache) rankOf(set, way int) int {
	w := c.ranks[set*c.rankWords+way>>3]
	return int((w >> (uint(way&7) * 8)) & 0xff)
}

// Snapshot dumps the resident line tags of every set. For the LRU and
// FIFO policies the per-set order is the replacement order (index 0 =
// MRU / newest fill, last = victim); invalid ways are omitted. The
// independent reference model in internal/verify compares this against
// its own state for bit-exact agreement.
func (c *Cache) Snapshot() [][]uint64 {
	nsets := len(c.tags) / c.assoc
	out := make([][]uint64, nsets)
	byRank := c.rankPath && c.repl != Random
	scratch := make([]uint64, c.assoc)
	for s := 0; s < nsets; s++ {
		base := s * c.assoc
		if byRank {
			for i := range scratch {
				scratch[i] = invalidTag
			}
			for w := 0; w < c.assoc; w++ {
				scratch[c.rankOf(s, w)] = c.tags[base+w]
			}
		} else {
			copy(scratch, c.tags[base:base+c.assoc])
		}
		tags := make([]uint64, 0, c.assoc)
		for _, t := range scratch {
			if t != invalidTag {
				tags = append(tags, t)
			}
		}
		out[s] = tags
	}
	return out
}

// ResidentLines returns the number of valid lines (for occupancy tests).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}
