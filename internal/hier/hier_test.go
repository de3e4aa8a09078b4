package hier

import (
	"reflect"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/trace"
)

// rig is one machine alone on its DL1 stage: the stage takes the bus
// events, the machine answers.
type rig struct {
	*Machine
	fsb.Snooper
}

// build makes a rig through New, the one constructor.
func build(cfg Config) (rig, error) {
	ms, ss, err := New(cfg)
	if err != nil {
		return rig{}, err
	}
	return rig{ms[0], ss[0]}, nil
}

// newOpen builds a rig and opens its measurement window, as the
// MsgStart at the head of every platform stream does.
func newOpen(cfg Config) (rig, error) {
	m, err := build(cfg)
	if err == nil {
		m.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	}
	return m, err
}

func ref(core uint8, addr uint64, kind mem.Kind) trace.Ref {
	return trace.Ref{Addr: mem.Addr(addr), Core: core, Size: 8, Kind: kind}
}

func TestValidation(t *testing.T) {
	bad := PentiumIV(1)
	bad.Cores = 0
	if _, _, err := New(bad); err == nil {
		t.Error("0 cores accepted")
	}
	bad = PentiumIV(1)
	bad.DL1.LineSize = 48
	if _, _, err := New(PentiumIV(1), bad); err == nil {
		t.Error("bad DL1 accepted")
	}
	bad = PentiumIV(1)
	pf := prefetch.Config{}
	bad.Prefetch = &pf
	if _, _, err := New(bad); err == nil {
		t.Error("bad prefetch config accepted")
	}
}

// TestWindowGatesTiming: only transactions between MsgStart and MsgStop
// reach the hierarchy; host noise outside the window costs nothing.
func TestWindowGatesTiming(t *testing.T) {
	m, err := build(PentiumIV(1))
	if err != nil {
		t.Fatal(err)
	}
	m.OnRef(ref(0, 0x4000_0000, mem.Load))
	m.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart}))
	m.OnRef(ref(0, 0x4000_1000, mem.Load))
	m.OnMsg(fsb.Message{Kind: fsb.MsgStop})
	m.OnRef(ref(0, 0x4000_2000, mem.Store))
	if got := m.L1Stats().Accesses; got != 1 {
		t.Errorf("L1 saw %d accesses, want only the 1 inside the window", got)
	}
}

func TestIPCWithoutMisses(t *testing.T) {
	m, err := newOpen(PentiumIV(1))
	if err != nil {
		t.Fatal(err)
	}
	// Touch one line repeatedly: 1 cold L1 miss then pure hits.
	for i := 0; i < 1000; i++ {
		m.OnRef(ref(0, 0x4000_0000, mem.Load))
	}
	m.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 1000})
	ipc := m.IPC()
	want := 1 / PentiumIV(1).Lat.BaseCPI
	if ipc < want*0.6 || ipc > want {
		t.Errorf("hit-only IPC = %.3f, want near %.3f", ipc, want)
	}
}

func TestMissesReduceIPC(t *testing.T) {
	mHit, _ := newOpen(PentiumIV(1))
	mMiss, _ := newOpen(PentiumIV(1))
	for i := 0; i < 2000; i++ {
		mHit.OnRef(ref(0, 0x4000_0000, mem.Load))
		// Random-ish strided pattern defeating the 512 KB L2.
		mMiss.OnRef(ref(0, 0x4000_0000+uint64(i*7919)*64, mem.Load))
	}
	mHit.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 2000})
	mMiss.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 2000})
	if mMiss.IPC() >= mHit.IPC() {
		t.Errorf("missing IPC %.3f not below hitting IPC %.3f", mMiss.IPC(), mHit.IPC())
	}
	if mMiss.L2Stats().Misses == 0 {
		t.Error("expected L2 misses in the missing run")
	}
}

func TestStreamingCheaperThanRandom(t *testing.T) {
	stream, _ := newOpen(PentiumIV(1))
	random, _ := newOpen(PentiumIV(1))
	for i := 0; i < 5000; i++ {
		stream.OnRef(ref(0, 0x4000_0000+uint64(i)*64, mem.Load))
		random.OnRef(ref(0, 0x4000_0000+uint64((i*2654435761)%(1<<28))&^63, mem.Load))
	}
	stream.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 5000})
	random.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 5000})
	// Both miss every access, but streaming misses overlap.
	if stream.Cycles() >= random.Cycles() {
		t.Errorf("streaming cycles %.0f not below random cycles %.0f",
			stream.Cycles(), random.Cycles())
	}
}

func TestL1FiltersL2(t *testing.T) {
	m, _ := newOpen(PentiumIV(1))
	for i := 0; i < 100; i++ {
		m.OnRef(ref(0, 0x4000_0000, mem.Load))
	}
	if got := m.L2Stats().Accesses; got != 1 {
		t.Errorf("L2 saw %d accesses, want 1 (L1 filters hits)", got)
	}
	if got := m.L1Stats().Accesses; got != 100 {
		t.Errorf("L1 saw %d accesses, want 100", got)
	}
}

func TestPerCoreIsolationOfCaches(t *testing.T) {
	cfg := Xeon16(2, 1, nil)
	m, _ := newOpen(cfg)
	// Core 0 warms a line; core 1 touching the same line must miss
	// (private caches).
	m.OnRef(ref(0, 0x4000_0000, mem.Load))
	m.OnRef(ref(1, 0x4000_0000, mem.Load))
	if got := m.L1Stats().Misses; got != 2 {
		t.Errorf("private L1s recorded %d misses, want 2", got)
	}
}

// TestPerCorePrefetchers interleaves two cores' strided streams in one
// 4 KiB region: core 0 walks forward a line at a time, core 1 backward.
// Each core trains its own prefetcher, so each sees one constant stride
// and confirms one stream; one table shared by both would see the
// stride flip on every access and confirm none.
func TestPerCorePrefetchers(t *testing.T) {
	pf := prefetch.DefaultConfig(64)
	m, _ := newOpen(Xeon16(2, 1, &pf))
	const base, lines = 0x4000_0000, 16
	for i := uint64(0); i < lines; i++ {
		m.OnRef(ref(0, base+i*64, mem.Load))
		m.OnRef(ref(1, base+(63-i)*64, mem.Load))
	}
	for c, cs := range m.cores {
		if st := cs.pf.Stats(); st.Trainings != lines || st.Streams != 1 || st.Issued == 0 {
			t.Errorf("core %d's prefetcher: %+v, want %d trainings, one stream, some issued", c, st, lines)
		}
	}
}

func TestIgnoresUnknownCores(t *testing.T) {
	m, _ := newOpen(PentiumIV(1))
	m.OnRef(ref(9, 0x4000_0000, mem.Load)) // only core 0 exists
	if m.L1Stats().Accesses != 0 {
		t.Error("out-of-range core not ignored")
	}
}

func TestPrefetchingReducesCycles(t *testing.T) {
	pf := prefetch.DefaultConfig(64)
	off, _ := newOpen(Xeon16(1, 1, nil))
	on, _ := newOpen(Xeon16(1, 1, &pf))
	// Long unit-stride stream over 4 MB: ideal for the stride prefetcher.
	for i := 0; i < 60000; i++ {
		addr := 0x4000_0000 + uint64(i)*64
		off.OnRef(ref(0, addr, mem.Load))
		on.OnRef(ref(0, addr, mem.Load))
	}
	off.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 60000})
	on.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 60000})
	if on.Prefetches().Issued == 0 {
		t.Fatal("prefetcher never fired")
	}
	if on.Cycles() >= off.Cycles() {
		t.Errorf("prefetch-on cycles %.0f not below prefetch-off %.0f",
			on.Cycles(), off.Cycles())
	}
	gain := off.Cycles()/on.Cycles() - 1
	t.Logf("stream prefetch gain: %.1f%%", gain*100)
}

// TestBusSaturationDropsPrefetches runs eight unit-stride streams on a
// starved bus and on a default one. Every line a prefetcher emits is
// dropped, issued, or (already in DL2) neither, so issued + dropped
// never exceeds what the cores' prefetchers emitted; on the starved bus
// every one is dropped.
func TestBusSaturationDropsPrefetches(t *testing.T) {
	pf := prefetch.DefaultConfig(64)
	for _, starved := range []bool{true, false} {
		cfg := Xeon16(8, 1, &pf)
		if starved {
			cfg.BusCapacity = 200
		}
		m, _ := newOpen(cfg)
		for i := 0; i < 20000; i++ {
			core := uint8(i % 8)
			m.OnRef(ref(core, 0x4000_0000+uint64(core)<<24+uint64(i/8)*64, mem.Load))
		}
		var emitted uint64
		for _, cs := range m.cores {
			emitted += cs.pf.Stats().Issued
		}
		rep := m.Prefetches()
		t.Logf("starved %v: %d emitted, %d issued, %d dropped", starved, emitted, rep.Issued, rep.Dropped)
		switch {
		case rep.Dropped == 0:
			t.Errorf("starved %v: no prefetches dropped: %+v", starved, rep)
		case rep.Issued+rep.Dropped > emitted:
			t.Errorf("starved %v: %d issued + %d dropped > %d emitted", starved, rep.Issued, rep.Dropped, emitted)
		case starved && (rep.Issued != 0 || rep.Dropped != emitted):
			t.Errorf("starved bus issued %d and dropped %d of %d emitted, want 0 and all", rep.Issued, rep.Dropped, emitted)
		}
	}
}

func TestContentionIncreasesLatency(t *testing.T) {
	low := Xeon16(1, 1, nil)
	high := Xeon16(1, 1, nil)
	high.BusCapacity = 100 // tiny window capacity: always saturated
	mLow, _ := newOpen(low)
	mHigh, _ := newOpen(high)
	for i := 0; i < 20000; i++ {
		addr := 0x4000_0000 + uint64(i*97)*64
		mLow.OnRef(ref(0, addr, mem.Load))
		mHigh.OnRef(ref(0, addr, mem.Load))
	}
	mLow.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 20000})
	mHigh.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 20000})
	if mHigh.Cycles() <= mLow.Cycles() {
		t.Errorf("contended cycles %.0f not above uncontended %.0f",
			mHigh.Cycles(), mLow.Cycles())
	}
}

func TestMessagesDecodedFromRawRefs(t *testing.T) {
	m, _ := newOpen(PentiumIV(1))
	m.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 777}))
	if m.Instructions() != 777 {
		t.Errorf("instructions = %d, want 777", m.Instructions())
	}
}

func TestSplitAccessServicesBothLines(t *testing.T) {
	m, _ := newOpen(PentiumIV(1))
	m.OnRef(trace.Ref{Addr: 0x4000_003C, Core: 0, Size: 8, Kind: mem.Load})
	if got := m.L1Stats().Misses; got != 2 {
		t.Errorf("straddling access caused %d L1 misses, want 2", got)
	}
	if got := m.L2Stats().Accesses; got != 2 {
		t.Errorf("L2 serviced %d lines, want 2", got)
	}
}

func TestDefaultBusParamsApplied(t *testing.T) {
	cfg := PentiumIV(1) // no bus params set
	m, err := newOpen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.BusWindowCycles == 0 || m.cfg.BusCapacity == 0 {
		t.Error("bus window defaults not applied")
	}
}

func TestAggregateStats(t *testing.T) {
	m, _ := newOpen(Xeon16(4, 1, nil))
	for c := uint8(0); c < 4; c++ {
		m.OnRef(ref(c, 0x4000_0000+uint64(c)<<20, mem.Store))
	}
	l1 := m.L1Stats()
	if l1.Accesses != 4 || l1.Stores != 4 || l1.Misses != 4 {
		t.Errorf("aggregate L1 stats wrong: %+v", l1)
	}
}

// sumStats adds up every counter of the given Stats field by field
// through reflect, independently of cache.Stats.Add.
func sumStats(all []*cache.Stats) cache.Stats {
	var out cache.Stats
	dst := reflect.ValueOf(&out).Elem()
	for _, s := range all {
		src := reflect.ValueOf(s).Elem()
		for i := 0; i < dst.NumField(); i++ {
			if f := dst.Field(i); f.Kind() == reflect.Array {
				for j := 0; j < f.Len(); j++ {
					f.Index(j).SetUint(f.Index(j).Uint() + src.Field(i).Index(j).Uint())
				}
			} else {
				f.SetUint(f.Uint() + src.Field(i).Uint())
			}
		}
	}
	return out
}

// TestAggregateSumsEveryCounter: L1Stats and L2Stats are the per-core
// sum of every counter, the traffic and per-core arrays included.
func TestAggregateSumsEveryCounter(t *testing.T) {
	m, err := newOpen(Xeon16(4, 1.0/16, nil)) // a 64 KB DL2
	if err != nil {
		t.Fatal(err)
	}
	// Enough distinct lines per core to evict dirty lines from both
	// levels, so every counter moves.
	for i := 0; i < 40000; i++ {
		c := uint8(i % 4)
		kind := mem.Load
		if i%3 == 0 {
			kind = mem.Store
		}
		m.OnRef(ref(c, 0x4000_0000+uint64(c)<<28+uint64(i*4099%(1<<22)), kind))
	}
	var l1, l2 []*cache.Stats
	for i, cs := range m.cores {
		l1 = append(l1, m.st.l1[i].Stats())
		l2 = append(l2, cs.l2.Stats())
	}
	for _, level := range []struct {
		name string
		got  cache.Stats
		per  []*cache.Stats
	}{
		{"L1", m.L1Stats(), l1},
		{"L2", m.L2Stats(), l2},
	} {
		want := sumStats(level.per)
		if want.Writebacks == 0 || want.TrafficBytes == 0 || want.PerCoreMisses[3] == 0 {
			t.Fatalf("%s: workload left counters idle: %+v", level.name, want)
		}
		if level.got != want {
			t.Errorf("%s aggregate differs from the per-core sum:\n got %+v\nwant %+v", level.name, level.got, want)
		}
	}
}

// TestZeroSizeReference: a zero-size transaction counts as one byte, as
// in every other model of the AF — one DL1 access wherever it lands,
// address 0 included.
func TestZeroSizeReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		addr mem.Addr
	}{
		{"aligned", 0x4000_0000},
		{"unaligned", 0x4000_0021},
		{"address 0", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newOpen(PentiumIV(1))
			m.OnRef(trace.Ref{Addr: tc.addr, Core: 0, Size: 0, Kind: mem.Load})
			if got := m.L1Stats().Accesses; got != 1 {
				t.Errorf("zero-size reference made %d DL1 accesses, want 1", got)
			}
		})
	}
}

// result is every answer a Machine gives.
type result struct {
	Config       Config
	Instructions uint64
	Cycles, IPC  float64
	L1, L2, L3   cache.Stats
	Prefetches   PrefetchReport
}

func resultOf(m *Machine) result {
	return result{m.Config(), m.Instructions(), m.Cycles(), m.IPC(),
		m.L1Stats(), m.L2Stats(), m.L3Stats(), m.Prefetches()}
}

// sharingStream is a four-core stream for the sharing test: per-core
// unit strides the prefetcher trains on, a shared region every core
// loads and stores, line straddlers, zero-size references, an unknown
// core, and noise outside the window.
func sharingStream() []trace.Ref {
	msg := func(k fsb.MsgKind, core uint8, v uint64) trace.Ref {
		return fsb.EncodeMessage(fsb.Message{Kind: k, Core: core, Value: v})
	}
	refs := []trace.Ref{ref(0, 0x4000_0000, mem.Load), msg(fsb.MsgStart, 0, 0)}
	for i := 0; i < 60000; i++ {
		c := uint8(i % 4)
		kind := mem.Load
		if i%5 == 0 {
			kind = mem.Store
		}
		switch i % 7 {
		case 0:
			refs = append(refs, ref(c, 0x5000_0000+uint64(i*4099%(1<<20)), kind))
		case 1:
			refs = append(refs, trace.Ref{Addr: mem.Addr(0x6000_003C + uint64(i%64)*64), Core: c, Size: 8, Kind: kind})
		case 2:
			refs = append(refs, trace.Ref{Addr: mem.Addr(0x6000_0000 + uint64(i)), Core: c, Kind: kind})
		case 3:
			refs = append(refs, ref(9, 0x4000_0000, kind))
		default:
			refs = append(refs, ref(c, 0x4000_0000+uint64(c)<<24+uint64(i/4)*64, kind))
		}
		if i%10000 == 9999 {
			refs = append(refs, msg(fsb.MsgStop, 0, 0), ref(c, 0x7000_0000, mem.Store),
				msg(fsb.MsgInstRetired, c, uint64(i)), msg(fsb.MsgStart, 0, 0))
		}
	}
	return refs
}

// TestSharedStageEqualsMachinesAlone: machines sharing one DL1 stage
// answer exactly what each answers on a stage of its own — the test
// that fails if a back end ever writes into the DL1. It also holds the
// prefetcher to the DL2: prefetch on and off see the same DL1.
func TestSharedStageEqualsMachinesAlone(t *testing.T) {
	pf := prefetch.DefaultConfig(64)
	off := Xeon16(4, 1.0/16, nil)
	on := Xeon16(4, 1.0/16, &pf)
	l3 := off
	l3.L3 = &cache.Config{Name: "L3", Size: 1 << 20, LineSize: 64, Assoc: 16}
	cfgs := []Config{off, on, l3}

	shared, stages, err := New(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("%d stages for three machines on one DL1, want 1", len(stages))
	}
	stream := sharingStream()
	for _, r := range stream {
		fsb.Deliver(stages[0], []trace.Ref{r})
	}
	var alone []result
	for _, cfg := range cfgs {
		m, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fsb.Deliver(m.Snooper, stream)
		alone = append(alone, resultOf(m.Machine))
	}
	for i, m := range shared {
		if got := resultOf(m); !reflect.DeepEqual(got, alone[i]) {
			t.Errorf("machine %d on a shared stage:\n got %+v\nwant %+v", i, got, alone[i])
		}
	}
	if alone[1].Prefetches.Issued == 0 || alone[2].L3.Accesses == 0 || alone[0].L2.Writebacks == 0 {
		t.Fatalf("stream left a back end idle: %+v", alone)
	}
	if alone[0].L1 != alone[1].L1 {
		t.Errorf("prefetching moved the DL1: off %+v, on %+v", alone[0].L1, alone[1].L1)
	}
	if alone[1].Cycles == alone[0].Cycles || alone[2].Cycles == alone[0].Cycles {
		t.Error("back ends did not differ: the test compares nothing")
	}
	if _, stages, _ := New(off, PentiumIV(1), on, Xeon16(2, 1.0/16, nil)); len(stages) != 3 {
		t.Errorf("%d stages for three distinct (Cores, DL1), want 3", len(stages))
	}
}
