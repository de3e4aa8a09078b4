// Package dragonhead is a software model of Intel's Dragonhead FPGA
// cache emulator, the performance-model half of the paper's co-simulation
// platform. The physical board has six FPGAs; the model reproduces the
// same pipeline:
//
//	AF  — address filter: receives FSB transactions from the logic
//	      analyzer interface, honors the start/stop emulation window,
//	      decodes control messages, regulates accesses to line-granular
//	      requests, and routes them to a cache-controller bank.
//	CC0..CC3 — cache controllers: four address-interleaved banks that
//	      together emulate one shared last-level cache with true LRU.
//	      Banking by the low line-number bits is exact: the union of the
//	      banks' sets is precisely the monolithic cache's set space.
//	CB  — control block: configures AF/CC and collects performance
//	      counters; the host reads them every 500 µs of emulated time,
//	      which the model reproduces by sampling on the cycles-completed
//	      messages from the execution engine.
//
// Like the hardware, the emulator is passive: it never stalls the
// execution side; it only observes and counts.
package dragonhead

import (
	"fmt"
	"math/bits"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// DefaultBanks is the number of CC FPGAs on the physical board.
const DefaultBanks = 4

// DefaultSamplePeriod is the host's counter-collection period in seconds
// of emulated time (500 µs).
const DefaultSamplePeriod = 500e-6

// DefaultClockHz is the platform clock that converts cycles-completed
// messages into emulated seconds: the 3.0 GHz Xeon reference machine.
const DefaultClockHz = 3e9

// Config describes one emulated LLC.
type Config struct {
	// LLC is the shared last-level cache being emulated. The physical
	// emulator supports 1 MB to 256 MB with 64 B to 4096 B lines.
	LLC cache.Config
	// Banks is the number of CC banks (default 4). Must divide the set
	// count and be a power of two.
	Banks int
	// PrivatePerCore, if positive, reconfigures the emulator as that
	// many private per-core LLC slices instead of one shared LLC: each
	// core gets LLC.Size / PrivatePerCore of isolated capacity and
	// requests route by core ID rather than by address. This answers
	// the shared-vs-private LLC design question the related work
	// debates (Liu et al., Zhang & Asanovic) with the same emulator.
	PrivatePerCore int
	// Shards, if > 1, spreads one run's bank lookups across that many
	// worker goroutines, partitioned by the same low line-number bits
	// that select the CC bank (see shard.go). Must be a power of two;
	// values above Banks are clamped to Banks. 0 or 1 means serial.
	// Results are bit-identical to serial execution. Ignored in the
	// private organization, which routes by core ID, not address. Only
	// core.WithBankShards, which bench's probes call, sets it.
	Shards int
	// ClockHz converts cycles-completed messages into emulated seconds
	// for CB sampling (default DefaultClockHz).
	ClockHz float64
	// SamplePeriod is the CB collection period in emulated seconds.
	SamplePeriod float64
	// Telemetry, when non-nil, registers the emulator's counters (AF
	// drops, per-CC-bank accesses/misses, CB samples). Deltas push at
	// CB-sample and Finalize boundaries — the lookup hot path is never
	// touched, so enabling telemetry does not slow emulation.
	Telemetry *telemetry.Registry
	// Trace, when non-nil and Shards > 1, parents the sharded fan-out's
	// per-shard busy-time spans (recorded when the sharder closes at
	// Finalize). Timing is per delivered batch, never per event.
	Trace *telemetry.Span
}

// DefaultConfig returns a Dragonhead emulating the given LLC with the
// physical board's bank count and sampling period.
func DefaultConfig(llc cache.Config) Config {
	return Config{LLC: llc, Banks: DefaultBanks, ClockHz: DefaultClockHz, SamplePeriod: DefaultSamplePeriod}
}

// Sample is one CB counter snapshot.
type Sample struct {
	// Cycles is the cumulative cycles-completed at collection time.
	Cycles uint64
	// Instructions is the cumulative instructions retired (all cores).
	Instructions uint64
	// Accesses and Misses are cumulative LLC counters.
	Accesses uint64
	Misses   uint64
}

// Emulator is the Dragonhead model. It implements fsb.Snooper.
type Emulator struct {
	cfg       Config
	banks     []*cache.Cache
	bankMask  uint64
	bankShift uint
	lineShift uint
	// The AF regulates to units of 1<<unitShift bytes: lines, or
	// sectors when the LLC is sectored.
	unitShift uint

	// AF and CB state.
	af      fsb.AF
	cb      fsb.CB
	samples []Sample

	// Delivery state. The first delivered event sets live: from then
	// on the counters belong to whichever goroutine delivers, and a
	// read could race. Finalize — called by fsb.Bus.Close after
	// delivery drains, or by whoever feeds the emulator by hand —
	// clears it. Like the hardware, where the host may only read the
	// CB after emulation stops, a read in between fails loudly, on one
	// processor as on many.
	live bool

	// Sharded delivery state (see shard.go). nshards > 1 enables the
	// intra-run sharded path; sharder/shardCons exist only between the
	// first event of a run and Finalize.
	nshards   int
	sharder   *fsb.Sharder
	shardCons []*emuShard

	// tel is nil unless Config.Telemetry attached a registry.
	tel *emuTelemetry
}

// emuTelemetry holds the emulator's registered metrics plus the
// already-pushed watermarks, so repeated pushes (every CB sample, then
// Finalize) emit exact deltas. Counters are shared across emulators on
// one registry; totals are process-cumulative.
type emuTelemetry struct {
	afDropped *telemetry.Counter // dragonhead_af_dropped_total
	cbSamples *telemetry.Counter // dragonhead_cb_samples_total
	bankAcc   []*telemetry.Counter
	bankMiss  []*telemetry.Counter

	pushedDropped  uint64
	pushedSamples  uint64
	pushedBankAcc  []uint64
	pushedBankMiss []uint64
}

// newEmuTelemetry resolves the emulator's counters. Bank counters are
// per CC index (dragonhead_cc0_accesses_total ...), mirroring the four
// physical CC FPGAs; a private organization registers one pair per
// slice the same way.
func newEmuTelemetry(r *telemetry.Registry, banks int) *emuTelemetry {
	t := &emuTelemetry{
		afDropped:      r.Counter("dragonhead_af_dropped_total"),
		cbSamples:      r.Counter("dragonhead_cb_samples_total"),
		bankAcc:        make([]*telemetry.Counter, banks),
		bankMiss:       make([]*telemetry.Counter, banks),
		pushedBankAcc:  make([]uint64, banks),
		pushedBankMiss: make([]uint64, banks),
	}
	for i := 0; i < banks; i++ {
		t.bankAcc[i] = r.Counter(fmt.Sprintf("dragonhead_cc%d_accesses_total", i))
		t.bankMiss[i] = r.Counter(fmt.Sprintf("dragonhead_cc%d_misses_total", i))
	}
	return t
}

// push emits the delta between the emulator's raw counters and the last
// push. Runs on whichever goroutine delivers events (the CB path) or on
// the closing goroutine (Finalize) — never both at once, because
// Finalize happens only after delivery drains.
func (e *Emulator) push() {
	t := e.tel
	if t == nil {
		return
	}
	t.afDropped.Add(e.af.Dropped - t.pushedDropped)
	t.pushedDropped = e.af.Dropped
	n := uint64(len(e.samples))
	t.cbSamples.Add(n - t.pushedSamples)
	t.pushedSamples = n
	for i, b := range e.banks {
		s := b.Stats()
		t.bankAcc[i].Add(s.Accesses - t.pushedBankAcc[i])
		t.pushedBankAcc[i] = s.Accesses
		t.bankMiss[i].Add(s.Misses - t.pushedBankMiss[i])
		t.pushedBankMiss[i] = s.Misses
	}
}

// New builds an emulator. The LLC configuration is validated and split
// across the banks.
func New(cfg Config) (*Emulator, error) {
	if err := cfg.LLC.Validate(); err != nil {
		return nil, err
	}
	if cfg.Banks == 0 {
		cfg.Banks = DefaultBanks
	}
	if cfg.Banks&(cfg.Banks-1) != 0 {
		return nil, fmt.Errorf("dragonhead: bank count %d is not a power of two", cfg.Banks)
	}
	if cfg.ClockHz <= 0 {
		cfg.ClockHz = DefaultClockHz
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = DefaultSamplePeriod
	}
	lines := cfg.LLC.Size / cfg.LLC.LineSize
	assoc := uint64(cfg.LLC.Assoc)
	if cfg.LLC.Assoc == 0 {
		assoc = lines
	}
	sets := lines / assoc
	if uint64(cfg.Banks) > sets {
		return nil, fmt.Errorf("dragonhead: %d banks exceed %d sets", cfg.Banks, sets)
	}
	if cfg.PrivatePerCore > 0 {
		cfg.Shards = 1 // private routes by core, not address: sharding off
	}
	if cfg.Shards > 1 && cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("dragonhead: shard count %d is not a power of two", cfg.Shards)
	}
	if cfg.Shards > cfg.Banks {
		cfg.Shards = cfg.Banks
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}

	e := &Emulator{cfg: cfg, bankMask: uint64(cfg.Banks - 1), nshards: cfg.Shards}
	for b := cfg.Banks; b > 1; b >>= 1 {
		e.bankShift++
	}
	for s := cfg.LLC.LineSize; s > 1; s >>= 1 {
		e.lineShift++
	}
	e.unitShift = e.lineShift
	if cfg.LLC.SectorSize != 0 {
		e.unitShift = uint(bits.TrailingZeros64(cfg.LLC.SectorSize))
	}
	// Shared organization: one slice per CC bank, routed by address;
	// private: one per core, routed by core ID.
	n, what := cfg.Banks, "CC"
	if cfg.PrivatePerCore > 0 {
		n, what = cfg.PrivatePerCore, "P"
	}
	sliceCfg := cfg.LLC
	sliceCfg.Size = cfg.LLC.Size / uint64(n)
	for i := 0; i < n; i++ {
		sliceCfg.Name = fmt.Sprintf("%s/%s%d", cfg.LLC.Name, what, i)
		c, err := cache.New(sliceCfg)
		if err != nil {
			return nil, fmt.Errorf("dragonhead: slice %s%d: %w", what, i, err)
		}
		e.banks = append(e.banks, c)
	}
	e.cb = fsb.NewCB(cfg.ClockHz, cfg.SamplePeriod)
	if cfg.Telemetry != nil {
		e.tel = newEmuTelemetry(cfg.Telemetry, len(e.banks))
	}
	return e, nil
}

// Config returns the emulator configuration.
func (e *Emulator) Config() Config { return e.cfg }

// Finalize implements fsb.Finalizer: the event stream has drained and
// counters are sealed; reads are safe again. fsb.Bus.Close calls it
// after joining the delivery workers — call it directly when driving
// OnRef/OnMsg/OnBatch by hand. Finalize also pushes the run's remaining
// telemetry deltas (the tail since the last CB sample). An emulator
// serves one stream: build a new one for the next.
func (e *Emulator) Finalize() {
	e.closeSharder()
	e.live = false
	e.push()
}

// arm sets live on the first delivered event. It writes only once per
// stream, so a reader that synchronised with delivery after that first
// event (as fsb.Bus.Close does) reads the flag without racing later
// events.
func (e *Emulator) arm() {
	if !e.live {
		e.live = true
	}
}

// mustBeQuiesced guards every counter read: between the first event and
// Finalize the counters belong to the delivering goroutine, so fail
// loudly instead of returning numbers that may race.
func (e *Emulator) mustBeQuiesced(what string) {
	if e.live {
		panic(fmt.Sprintf(
			"dragonhead: %s called before Finalize while events are being delivered (close the bus or call Finalize first; results would race with delivery)",
			what))
	}
}

// OnRef implements fsb.Snooper: the AF stage for memory transactions.
func (e *Emulator) OnRef(r trace.Ref) {
	e.arm()
	if m, ok := fsb.DecodeMessage(r); ok {
		e.OnMsg(m)
		return
	}
	if !e.af.Open {
		e.af.Dropped++
		return
	}
	e.regulate(r)
}

// OnBatch implements fsb.BatchSnooper: the AF stage for a run of bus
// events, one pass and no call through an interface. A shared,
// unsharded emulator hands each in-window stretch up to the next
// message to cache.AccessBanked, which regulates and routes it to the
// CC banks in one loop; the private and sharded organisations regulate
// event by event.
func (e *Emulator) OnBatch(batch []trace.Ref) {
	e.arm()
	banked := e.cfg.PrivatePerCore == 0 && e.nshards == 1
	for i := 0; i < len(batch); i++ {
		r := batch[i]
		if m, ok := fsb.DecodeMessage(r); ok {
			e.OnMsg(m)
			continue
		}
		switch {
		case !e.af.Open:
			e.af.Dropped++
		case banked:
			j := i + 1
			for j < len(batch) && !fsb.IsMessage(batch[j]) {
				j++
			}
			cache.AccessBanked(e.banks, batch[i:j])
			i = j - 1
		default:
			e.regulate(r)
		}
	}
}

// regulate splits one in-window transaction into unit-granular requests
// (trace.Ref.Units, as in every other model of the AF) and routes them
// to the banks.
func (e *Emulator) regulate(r trace.Ref) {
	first, last := r.Units(e.unitShift)
	if e.nshards > 1 {
		// Sharded path: the unit goes to the worker owning its bank.
		// nshards divides Banks, so blk mod nshards cuts along bank lines.
		e.ensureSharder()
		for u := first; u <= last; u++ {
			a := u << e.unitShift
			e.sharder.Ref(int(a>>e.lineShift)&(e.nshards-1), trace.Ref{Addr: mem.Addr(a), Kind: r.Kind, Core: r.Core})
		}
		return
	}
	for u := first; u <= last; u++ {
		e.lookup(u<<e.unitShift, r.Kind, r.Core)
	}
}

// lookup routes the request for the unit holding address a to its CC bank.
// In the shared organization, bank select uses the low line-number bits
// and the bank sees the address with those bits stripped, so the union
// of bank set spaces equals the monolithic mapping exactly. In the
// private organization, requests route by issuing core. With regulate it
// is the per-unit route of OnRef, the private and sharded organisations,
// and the reference cache.AccessBanked is held to.
func (e *Emulator) lookup(a uint64, kind mem.Kind, core uint8) {
	if e.cfg.PrivatePerCore > 0 {
		e.banks[int(core)%len(e.banks)].Touch(mem.Addr(a), kind, core)
		return
	}
	blk := a >> (e.lineShift & 63)
	inLine := a & (1<<(e.lineShift&63) - 1)
	e.banks[blk&e.bankMask].Touch(mem.Addr(blk>>(e.bankShift&63)<<(e.lineShift&63)|inLine), kind, core)
}

// OnMsg implements fsb.Snooper: the AF stage for control messages,
// and the CB collections a cycles-completed message makes due.
func (e *Emulator) OnMsg(m fsb.Message) {
	e.arm()
	e.af.Msg(m)
	if e.nshards > 1 && m.Kind == fsb.MsgCycles {
		// Sharded CB: broadcast the cycle count so every sampling
		// replica crosses the same boundaries.
		e.ensureSharder()
		e.sharder.Broadcast(m)
	}
	for at, ok := e.cb.Due(e.af.Cycles); ok; at, ok = e.cb.Due(e.af.Cycles) {
		e.collect(at)
	}
}

// collect is the CB host read at boundary at: snapshot cumulative
// counters. Each collection also pushes telemetry deltas — the software
// equivalent of the host reading the CB every 500 µs of emulated time.
// Sharded, it keeps only the skeleton (boundary + instructions, both
// producer-owned): bank counters are worker-owned until Finalize, which
// sums the per-shard partials into these skeletons.
func (e *Emulator) collect(at uint64) {
	s := Sample{Cycles: at, Instructions: e.af.Instructions()}
	if e.nshards > 1 {
		e.samples = append(e.samples, s)
		return
	}
	s.Accesses, s.Misses = e.totals()
	e.samples = append(e.samples, s)
	e.push()
}

// totals sums counters across banks.
func (e *Emulator) totals() (accesses, misses uint64) {
	for _, b := range e.banks {
		s := b.Stats()
		accesses += s.Accesses
		misses += s.Misses
	}
	return accesses, misses
}

// Stats returns the aggregate LLC statistics across all banks.
func (e *Emulator) Stats() cache.Stats {
	e.mustBeQuiesced("Stats")
	var out cache.Stats
	for _, b := range e.banks {
		out.Add(b.Stats())
	}
	return out
}

// Banks returns the number of CC banks (or private slices).
func (e *Emulator) Banks() int { return len(e.banks) }

// Shards returns the effective shard count (1 when serial).
func (e *Emulator) Shards() int { return e.nshards }

// BankStats returns one CC bank's counters — the per-FPGA view the
// verification layer uses to prove the address interleave partitions
// the stream (per-bank totals must sum to Stats with no overlap).
func (e *Emulator) BankStats(i int) cache.Stats {
	e.mustBeQuiesced("BankStats")
	return *e.banks[i].Stats()
}

// Instructions returns the total instructions retired across cores, per
// the latest inst-retired messages.
func (e *Emulator) Instructions() uint64 {
	e.mustBeQuiesced("Instructions")
	return e.af.Instructions()
}

// MPKI returns LLC misses per 1000 retired instructions.
func (e *Emulator) MPKI() float64 {
	e.mustBeQuiesced("MPKI")
	inst := e.af.Instructions()
	if inst == 0 {
		return 0
	}
	_, misses := e.totals()
	return float64(misses) * 1000 / float64(inst)
}

// Samples returns a copy of the CB time series, so callers cannot
// alias internal state.
func (e *Emulator) Samples() []Sample {
	e.mustBeQuiesced("Samples")
	out := make([]Sample, len(e.samples))
	copy(out, e.samples)
	return out
}

// Ignored returns the number of transactions dropped outside the
// start/stop window (host and simulator noise).
func (e *Emulator) Ignored() uint64 {
	e.mustBeQuiesced("Ignored")
	return e.af.Dropped
}
