// Package softsdv models the execution-driven half of the paper's
// co-simulation platform: Intel's SoftSDV full-system simulator running
// in DEX (direct-execution) mode.
//
// The real SoftSDV uses VMX to run guest code natively, time-slicing N
// virtual cores onto one physical processor; a driver regains control at
// each slice boundary, saves core state, and schedules the next virtual
// core. The cache emulator snooping the bus sees the interleaved,
// core-ID-tagged access stream.
//
// The model reproduces exactly that structure. Each virtual core's
// program runs as a goroutine ("native execution"); the Scheduler grants
// instruction quanta round-robin. Only one guest goroutine ever runs at
// a time — just like DEX on a uniprocessor host — so guest programs may
// share data structures without host-level synchronization; they
// coordinate through the scheduler's Barrier primitive, which parks a
// virtual core until its peers arrive.
//
// At every slice boundary the scheduler emits the co-simulation message
// protocol on the bus: core-ID before the slice's transactions,
// instructions-retired and cycles-completed after, and stop/start
// around injected "host noise" (the SoftSDV process and host OS
// activity the paper's address filter must exclude).
package softsdv

import (
	"errors"
	"fmt"
	"math/rand"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// DefaultQuantum is the default DEX time slice in instructions.
const DefaultQuantum = 50_000

// Config describes the virtual platform.
type Config struct {
	// Cores is the number of virtual cores (1..32 in the paper's
	// platform, up to 64 HW threads supported).
	Cores int
	// Quantum is the DEX time slice in instructions.
	Quantum uint64
	// HostNoiseRefs, if non-zero, injects that many host/simulator
	// memory references between slices, outside the emulation window.
	HostNoiseRefs int
	// Seed drives the host-noise generator.
	Seed int64
	// Telemetry, when non-nil, registers the engine's counters
	// (instructions retired, slice switches) into the registry; deltas
	// push once per DEX slice, never per instruction.
	Telemetry *telemetry.Registry
}

// Validate checks the configuration. The paper's DEX driver supported
// up to 64 hardware threads; the software engine extends to
// cache.MaxCores, 128, so the paper's 128-core projections (Section
// 4.3) can be run rather than extrapolated.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > cache.MaxCores {
		return fmt.Errorf("softsdv: cores must be in [1,%d], got %d", cache.MaxCores, c.Cores)
	}
	return nil
}

// Program is a guest workload: Run is the body of one virtual core's
// thread. core ranges over [0, Cores).
type Program interface {
	Run(t *Thread, core int)
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(t *Thread, core int)

// Run implements Program.
func (f ProgramFunc) Run(t *Thread, core int) { f(t, core) }

// threadState tracks where a virtual core is in its lifecycle.
type threadState uint8

const (
	stateReady threadState = iota
	stateBlocked
	stateDone
)

// Thread is the guest-visible execution context of one virtual core.
// It implements mem.Recorder, so workload kernels pass it directly to
// the typed buffer accessors in internal/mem.
type Thread struct {
	core    uint8
	sched   *Scheduler
	inst    uint64 // cumulative instructions retired
	loads   uint64
	stores  uint64
	slice   uint64 // instructions executed in the current quantum
	state   threadState
	killed  bool
	noYield int
	resume  chan struct{}
	yielded chan struct{}
	err     any // recovered panic from the guest body, if any
}

// errKilled is the panic value used to unwind abandoned guest
// goroutines during error teardown.
var errKilled = errors.New("softsdv: thread killed during teardown")

// Core returns the virtual core number.
func (t *Thread) Core() int { return int(t.core) }

// Instructions returns cumulative instructions retired.
func (t *Thread) Instructions() uint64 { return t.inst }

// Loads and Stores return cumulative memory-instruction counts.
func (t *Thread) Loads() uint64 { return t.loads }

// Stores returns cumulative store instructions.
func (t *Thread) Stores() uint64 { return t.stores }

// Access implements mem.Recorder: one memory instruction.
func (t *Thread) Access(addr mem.Addr, size uint8, kind mem.Kind) {
	t.sched.buf = append(t.sched.buf, trace.Ref{Addr: addr, Core: t.core, Size: size, Kind: kind})
	t.inst++
	t.slice++
	if kind == mem.Load {
		t.loads++
	} else {
		t.stores++
	}
	if t.slice >= t.sched.cfg.Quantum && t.noYield == 0 {
		t.yield()
	}
}

// Exec implements mem.Recorder: n non-memory instructions.
func (t *Thread) Exec(n uint64) {
	t.inst += n
	t.slice += n
	if t.slice >= t.sched.cfg.Quantum && t.noYield == 0 {
		t.yield()
	}
}

// Critical executes f atomically with respect to DEX scheduling: the
// time slice cannot end inside f. This models a short lock-held region
// (e.g. inserting into a shared tree); guest code that performs
// read-modify-write on shared data across multiple traced accesses must
// wrap it in Critical, exactly as it would take a lock on real
// hardware. The deferred quantum check fires on exit, so a thread
// cannot starve the platform by chaining critical sections.
func (t *Thread) Critical(f func()) {
	t.noYield++
	defer func() {
		t.noYield--
		if t.slice >= t.sched.cfg.Quantum && t.noYield == 0 {
			t.yield()
		}
	}()
	f()
}

// yield suspends the goroutine until the scheduler grants another slice.
func (t *Thread) yield() {
	t.yielded <- struct{}{}
	<-t.resume
	if t.killed {
		panic(errKilled)
	}
}

// park blocks the thread (barrier wait): it gives up the slice and will
// not be scheduled again until unblocked.
func (t *Thread) park() {
	t.state = stateBlocked
	t.yield()
}

// Barrier is a scheduler-integrated rendezvous for guest threads.
// Guest code must use it instead of host synchronization: the DEX
// scheduler runs one virtual core at a time, so blocking on a host
// primitive would deadlock the platform.
type Barrier struct {
	sched   *Scheduler
	parties int
	waiting []*Thread
}

// NewBarrier returns a barrier for the given number of threads.
func (s *Scheduler) NewBarrier(parties int) *Barrier {
	return &Barrier{sched: s, parties: parties}
}

// Wait parks t until all parties have arrived. The last arrival releases
// everyone and continues without parking.
func (b *Barrier) Wait(t *Thread) {
	if len(b.waiting)+1 == b.parties {
		for _, w := range b.waiting {
			w.state = stateReady
		}
		b.waiting = b.waiting[:0]
		// The releasing thread keeps its slice but still accounts a
		// synchronization instruction.
		t.Exec(1)
		return
	}
	b.waiting = append(b.waiting, t)
	t.Exec(1)
	t.park()
}

// Scheduler is the DEX driver: it multiplexes virtual cores onto the
// (single) simulation thread and drives the co-simulation protocol.
type Scheduler struct {
	cfg     Config
	bus     *fsb.Bus
	threads []*Thread
	cycles  uint64
	slices  uint64
	noise   *rand.Rand
	// buf holds the running slice's traffic: DEX runs one core at a time,
	// so all cores share it (one each would hold cores x quantum refs).
	buf []trace.Ref

	// Telemetry handles (nil = disabled, no-op Adds).
	telInst   *telemetry.Counter // softsdv_instructions_total
	telSlices *telemetry.Counter // softsdv_slice_switches_total
}

// NewScheduler builds a scheduler for the given platform.
func NewScheduler(cfg Config, bus *fsb.Bus) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultQuantum
	}
	return &Scheduler{
		cfg:       cfg,
		bus:       bus,
		noise:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		telInst:   cfg.Telemetry.Counter("softsdv_instructions_total"),
		telSlices: cfg.Telemetry.Counter("softsdv_slice_switches_total"),
	}, nil
}

// Config returns the platform configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Cycles returns total simulated cycles completed. The functional DEX
// model retires one instruction per cycle; detailed timing is the
// hierarchy model's job (internal/hier).
func (s *Scheduler) Cycles() uint64 { return s.cycles }

// Slices returns how many DEX time slices have been dispatched.
func (s *Scheduler) Slices() uint64 { return s.slices }

// Instructions returns total instructions retired across cores.
func (s *Scheduler) Instructions() uint64 {
	var n uint64
	for _, t := range s.threads {
		n += t.inst
	}
	return n
}

// MemoryInstructions returns total load and store instruction counts
// across cores (the Table 2 instruction-mix numerators).
func (s *Scheduler) MemoryInstructions() (loads, stores uint64) {
	for _, t := range s.threads {
		loads += t.loads
		stores += t.stores
	}
	return loads, stores
}

// ErrDeadlock reports that every live virtual core is parked.
var ErrDeadlock = errors.New("softsdv: all runnable cores are blocked (guest deadlock)")

// Run executes the program to completion on the virtual platform,
// emitting the full co-simulation protocol on the bus. It returns an
// error on guest deadlock or if a guest body panics.
func (s *Scheduler) Run(p Program) error {
	s.threads = make([]*Thread, s.cfg.Cores)
	s.buf = make([]trace.Ref, 0, min(s.cfg.Quantum, DefaultQuantum))
	for i := range s.threads {
		t := &Thread{
			core:    uint8(i),
			sched:   s,
			resume:  make(chan struct{}),
			yielded: make(chan struct{}),
		}
		s.threads[i] = t
		go func(core int) {
			defer func() {
				if r := recover(); r != nil {
					t.err = r
				}
				t.state = stateDone
				t.yielded <- struct{}{}
			}()
			<-t.resume // wait for the first slice grant
			p.Run(t, core)
		}(i)
	}

	live := len(s.threads)
	for live > 0 {
		progressed := false
		for _, t := range s.threads {
			if t.state != stateReady {
				continue
			}
			progressed = true
			s.dispatch(t)
			if t.state == stateDone {
				live--
				if t.err != nil {
					s.drain()
					return fmt.Errorf("softsdv: core %d panicked: %v", t.core, t.err)
				}
			}
		}
		if !progressed {
			s.drain()
			return ErrDeadlock
		}
	}
	return nil
}

// dispatch grants one slice to t and hands its traffic to the bus as
// one batch: the slice buffer with the protocol's messages, as the
// reserved-window transactions that carry them, written around the
// guest's own.
func (s *Scheduler) dispatch(t *Thread) {
	s.slices++
	t.slice = 0
	// The emulation window opens for the guest's transactions and closes
	// for host noise.
	s.buf = append(s.buf[:0],
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart}),
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCoreID, Core: t.core}))
	t.resume <- struct{}{}
	<-t.yielded

	s.cycles += t.slice
	s.telInst.Add(t.slice)
	s.telSlices.Inc()
	s.buf = append(s.buf,
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgInstRetired, Core: t.core, Value: t.inst}),
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCycles, Value: s.cycles}),
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStop}))
	for i := 0; i < s.cfg.HostNoiseRefs; i++ {
		// Host/simulator activity: addresses in a window no guest arena
		// occupies (below spaceBase), random-walk pattern.
		addr := mem.Addr(0x10_0000 + s.noise.Intn(1<<24))
		kind := mem.Load
		if s.noise.Intn(4) == 0 {
			kind = mem.Store
		}
		s.buf = append(s.buf, trace.Ref{Addr: addr, Core: t.core, Size: 8, Kind: kind})
	}
	s.bus.Refs(s.buf)
}

// drain unblocks and discards any still-parked goroutines so they do not
// leak after an error return.
func (s *Scheduler) drain() {
	for _, t := range s.threads {
		if t.state == stateDone {
			continue
		}
		// The goroutine is parked in yield(); wake it with the kill
		// flag set so it unwinds via panic and its deferred recover
		// signals completion. This keeps error paths goroutine-clean.
		t.killed = true
		t.resume <- struct{}{}
		<-t.yielded
	}
}
