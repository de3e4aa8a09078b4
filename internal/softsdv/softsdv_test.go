package softsdv

import (
	"errors"
	"testing"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// collector records bus traffic for assertions. Read it only after
// close: with two or more processors the bus delivers on a worker.
type collector struct {
	bus  *fsb.Bus
	refs []trace.Ref
	msgs []fsb.Message
}

// close closes the collector's bus, draining every delivery.
func (c *collector) close(t *testing.T) {
	t.Helper()
	if err := c.bus.Close(); err != nil {
		t.Fatal(err)
	}
}

func (c *collector) OnRef(r trace.Ref) { c.refs = append(c.refs, r) }
func (c *collector) OnMsg(m fsb.Message) {
	c.msgs = append(c.msgs, m)
}

func newSched(t *testing.T, cfg Config) (*Scheduler, *collector) {
	t.Helper()
	bus := fsb.NewBus()
	col := &collector{bus: bus}
	bus.Attach(col)
	s, err := NewScheduler(cfg, bus)
	if err != nil {
		t.Fatal(err)
	}
	return s, col
}

func TestConfigValidation(t *testing.T) {
	bus := fsb.NewBus()
	if _, err := NewScheduler(Config{Cores: 0}, bus); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := NewScheduler(Config{Cores: 129}, bus); err == nil {
		t.Error("129 cores accepted")
	}
}

func TestSingleThreadRuns(t *testing.T) {
	s, col := newSched(t, Config{Cores: 1, Quantum: 10})
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		for i := 0; i < 25; i++ {
			th.Access(mem.Addr(0x1000+i*8), 8, mem.Load)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	col.close(t)
	if s.Instructions() != 25 {
		t.Errorf("instructions = %d, want 25", s.Instructions())
	}
	if len(col.refs) != 25 {
		t.Errorf("bus saw %d refs, want 25", len(col.refs))
	}
	// Quantum 10 with 25 instructions = 3 slices.
	if s.Slices() != 3 {
		t.Errorf("slices = %d, want 3", s.Slices())
	}
}

func TestInstructionCountsPerThread(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 2, Quantum: 100})
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		th.Access(0x100, 8, mem.Load)
		th.Access(0x108, 8, mem.Store)
		th.Exec(10)
	}))
	if err != nil {
		t.Fatal(err)
	}
	loads, stores := s.MemoryInstructions()
	if loads != 2 || stores != 2 {
		t.Errorf("loads=%d stores=%d, want 2, 2", loads, stores)
	}
	if s.Instructions() != 24 {
		t.Errorf("instructions = %d, want 24", s.Instructions())
	}
}

// TestProtocolOrder: each slice must emit Start, CoreID, refs,
// InstRetired, Cycles, Stop in that order.
func TestProtocolOrder(t *testing.T) {
	s, col := newSched(t, Config{Cores: 1, Quantum: 1000})
	if err := s.Run(ProgramFunc(func(th *Thread, core int) {
		th.Access(0x100, 8, mem.Load)
	})); err != nil {
		t.Fatal(err)
	}
	col.close(t)
	kinds := make([]fsb.MsgKind, 0, len(col.msgs))
	for _, m := range col.msgs {
		kinds = append(kinds, m.Kind)
	}
	want := []fsb.MsgKind{fsb.MsgStart, fsb.MsgCoreID, fsb.MsgInstRetired, fsb.MsgCycles, fsb.MsgStop}
	if len(kinds) != len(want) {
		t.Fatalf("got %d messages %v, want %v", len(kinds), kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("message %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// TestRoundRobinFairness: cores alternate slices; every core's refs are
// tagged with its own id.
func TestRoundRobinFairness(t *testing.T) {
	s, col := newSched(t, Config{Cores: 4, Quantum: 5})
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		for i := 0; i < 20; i++ {
			th.Access(mem.Addr(0x1000*uint64(core+1)+uint64(i)*8), 8, mem.Load)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	col.close(t)
	perCore := map[uint8]int{}
	for _, r := range col.refs {
		perCore[r.Core]++
		// Address range identifies the issuing guest body.
		wantBase := mem.Addr(0x1000 * uint64(r.Core+1))
		if r.Addr < wantBase || r.Addr >= wantBase+0x1000 {
			t.Fatalf("core %d issued address %#x outside its range", r.Core, uint64(r.Addr))
		}
	}
	for c := uint8(0); c < 4; c++ {
		if perCore[c] != 20 {
			t.Errorf("core %d issued %d refs, want 20", c, perCore[c])
		}
	}
}

// TestConservation: instructions reported via InstRetired messages match
// the scheduler's totals exactly at the end of the run.
func TestConservation(t *testing.T) {
	s, col := newSched(t, Config{Cores: 3, Quantum: 7})
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		for i := 0; i < 50+core*13; i++ {
			th.Exec(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	col.close(t)
	last := map[uint8]uint64{}
	for _, m := range col.msgs {
		if m.Kind == fsb.MsgInstRetired {
			last[m.Core] = m.Value
		}
	}
	var total uint64
	for _, v := range last {
		total += v
	}
	if total != s.Instructions() {
		t.Errorf("protocol total %d != scheduler total %d", total, s.Instructions())
	}
}

func TestBarrier(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 4, Quantum: 1000})
	var log []int
	b := s.NewBarrier(4)
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		log = append(log, core) // phase 1 arrivals
		b.Wait(th)
		log = append(log, 10+core) // phase 2: strictly after all arrivals
		b.Wait(th)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 8 {
		t.Fatalf("log = %v", log)
	}
	for _, v := range log[:4] {
		if v >= 10 {
			t.Fatalf("phase 2 entry before all phase 1 arrivals: %v", log)
		}
	}
	for _, v := range log[4:] {
		if v < 10 {
			t.Fatalf("phase interleaving violated barrier: %v", log)
		}
	}
}

func TestBarrierManyRounds(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 8, Quantum: 50})
	b := s.NewBarrier(8)
	counters := make([]int, 8)
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		for round := 0; round < 100; round++ {
			counters[core]++
			// All counters must be within one round of each other at
			// every barrier.
			b.Wait(th)
			for _, c := range counters {
				if c != counters[core] {
					panic("barrier round skew")
				}
			}
			b.Wait(th)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 2, Quantum: 100})
	b := s.NewBarrier(3) // one party will never arrive
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		b.Wait(th)
	}))
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("got %v, want ErrDeadlock", err)
	}
}

func TestGuestPanicPropagates(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 2, Quantum: 100})
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		if core == 1 {
			panic("guest bug")
		}
		th.Exec(1)
	}))
	if err == nil {
		t.Fatal("expected error from guest panic")
	}
}

// windowTracker counts refs inside vs outside the emulation window, in
// bus delivery order (the same logic as Dragonhead's AF).
type windowTracker struct {
	window        bool
	inWin, outWin int
}

func (w *windowTracker) OnRef(r trace.Ref) {
	if w.window {
		w.inWin++
	} else {
		w.outWin++
	}
}

func (w *windowTracker) OnMsg(m fsb.Message) {
	switch m.Kind {
	case fsb.MsgStart:
		w.window = true
	case fsb.MsgStop:
		w.window = false
	}
}

func TestHostNoiseOutsideWindow(t *testing.T) {
	bus := fsb.NewBus()
	wt := &windowTracker{}
	bus.Attach(wt)
	s, _ := NewScheduler(Config{Cores: 1, Quantum: 100, HostNoiseRefs: 5, Seed: 3}, bus)
	if err := s.Run(ProgramFunc(func(th *Thread, core int) {
		th.Access(0x4000_0000, 8, mem.Load)
	})); err != nil {
		t.Fatal(err)
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	if wt.inWin != 1 {
		t.Errorf("in-window refs = %d, want 1 (the guest access)", wt.inWin)
	}
	if wt.outWin != 5 {
		t.Errorf("out-of-window refs = %d, want 5 (host noise)", wt.outWin)
	}
}

func TestThreadAccessors(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 1, Quantum: 100})
	err := s.Run(ProgramFunc(func(th *Thread, core int) {
		if th.Core() != 0 || core != 0 {
			panic("core id mismatch")
		}
		th.Access(0x10, 4, mem.Load)
		th.Access(0x20, 4, mem.Store)
		if th.Loads() != 1 || th.Stores() != 1 || th.Instructions() != 2 {
			panic("thread counters wrong")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultQuantum(t *testing.T) {
	bus := fsb.NewBus()
	s, err := NewScheduler(Config{Cores: 1}, bus)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Quantum != DefaultQuantum {
		t.Errorf("quantum = %d, want %d", s.Config().Quantum, DefaultQuantum)
	}
}

func TestCyclesAdvance(t *testing.T) {
	s, _ := newSched(t, Config{Cores: 2, Quantum: 10})
	if err := s.Run(ProgramFunc(func(th *Thread, core int) {
		th.Exec(100)
	})); err != nil {
		t.Fatal(err)
	}
	if s.Cycles() != 200 {
		t.Errorf("cycles = %d, want 200 (functional 1 IPC)", s.Cycles())
	}
}
