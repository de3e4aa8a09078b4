package dragonhead

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

func llc(size uint64) cache.Config {
	return cache.Config{Name: "LLC", Size: size, LineSize: 64, Assoc: 16}
}

func newEmu(t *testing.T, cfg Config) *Emulator {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LLC: cache.Config{Name: "x", Size: 100, LineSize: 64, Assoc: 1}}); err == nil {
		t.Error("invalid LLC accepted")
	}
	if _, err := New(Config{LLC: llc(1 << 20), Banks: 3}); err == nil {
		t.Error("non-power-of-two bank count accepted")
	}
	if _, err := New(Config{LLC: cache.Config{Name: "x", Size: 1 << 10, LineSize: 64, Assoc: 0}, Banks: 4}); err == nil {
		t.Error("more banks than sets accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	if got := e.Config().Banks; got != DefaultBanks {
		t.Errorf("banks = %d, want %d", got, DefaultBanks)
	}
	if e.Config().SamplePeriod != DefaultSamplePeriod {
		t.Error("sample period default not applied")
	}
}

func TestWindowGating(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	r := trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load}
	e.OnRef(r) // window closed: ignored
	if e.Stats().Accesses != 0 || e.Ignored() != 1 {
		t.Fatalf("pre-window access counted (acc=%d ignored=%d)", e.Stats().Accesses, e.Ignored())
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	if !e.af.Open {
		t.Fatal("window should be open")
	}
	e.OnRef(r)
	if e.Stats().Accesses != 1 {
		t.Fatal("in-window access not counted")
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgStop})
	e.OnRef(r)
	if e.Stats().Accesses != 1 || e.Ignored() != 2 {
		t.Error("post-window access counted")
	}
}

func TestMessagesDecodedFromRefs(t *testing.T) {
	// The AF must decode control messages arriving as raw transactions.
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	e.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart}))
	e.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCoreID, Core: 9}))
	if !e.af.Open || e.af.Core != 9 {
		t.Errorf("window=%v core=%d; want true, 9", e.af.Open, e.af.Core)
	}
}

func TestInstructionsAndMPKI(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	for i := 0; i < 100; i++ {
		e.OnRef(trace.Ref{Addr: mem.Addr(0x4000_0000 + i*4096), Size: 8, Kind: mem.Load, Core: 1})
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 1, Value: 50_000})
	e.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 2, Value: 50_000})
	if e.Instructions() != 100_000 {
		t.Fatalf("instructions = %d, want 100000", e.Instructions())
	}
	// 100 cold misses over 100k instructions = 1.0 MPKI.
	if got := e.MPKI(); got != 1.0 {
		t.Errorf("MPKI = %v, want 1.0", got)
	}
}

func TestInstRetiredIsCumulative(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	e.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 100})
	e.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 250})
	if e.Instructions() != 250 {
		t.Errorf("instructions = %d, want 250 (latest value, not sum)", e.Instructions())
	}
}

// TestBankedEquivalence: the 4-bank emulator must produce exactly the
// miss count of a monolithic cache of the same total size, for any
// trace (line-interleaved banking partitions the set space exactly).
func TestBankedEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mono, err := cache.New(llc(1 << 18))
		if err != nil {
			return false
		}
		banked, err := New(Config{LLC: llc(1 << 18), Banks: 4})
		if err != nil {
			return false
		}
		banked.OnMsg(fsb.Message{Kind: fsb.MsgStart})
		for i := 0; i < 20000; i++ {
			addr := mem.Addr(0x4000_0000 + rng.Intn(1<<20))
			kind := mem.Kind(rng.Intn(2))
			mono.Access(addr, 8, kind, 0)
			banked.OnRef(trace.Ref{Addr: addr, Size: 8, Kind: kind})
		}
		ms, bs := mono.Stats(), banked.Stats()
		return ms.Misses == bs.Misses && ms.Accesses == bs.Accesses &&
			ms.Writebacks == bs.Writebacks
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBankedEquivalenceAcrossBankCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	addrs := make([]mem.Addr, 30000)
	for i := range addrs {
		addrs[i] = mem.Addr(0x4000_0000 + rng.Intn(1<<21))
	}
	var miss []uint64
	for _, banks := range []int{1, 2, 4, 8} {
		e, err := New(Config{LLC: llc(1 << 19), Banks: banks})
		if err != nil {
			t.Fatal(err)
		}
		e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
		for _, a := range addrs {
			e.OnRef(trace.Ref{Addr: a, Size: 8, Kind: mem.Load})
		}
		miss = append(miss, e.Stats().Misses)
	}
	for i := 1; i < len(miss); i++ {
		if miss[i] != miss[0] {
			t.Errorf("bank count changed miss count: %v", miss)
		}
	}
}

func TestPrivateOrganizationIsolatesCores(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20), PrivatePerCore: 4})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	// Core 0 warms a line; core 1 touching the same address must miss
	// (its private slice has no copy).
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load, Core: 0})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load, Core: 1})
	if got := e.Stats().Misses; got != 2 {
		t.Errorf("private slices shared a line: %d misses, want 2", got)
	}
	// Re-access by core 0 hits its own slice.
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load, Core: 0})
	if got := e.Stats().Misses; got != 2 {
		t.Errorf("core 0 lost its own line: %d misses", got)
	}
}

func TestPrivateOrganizationDividesCapacity(t *testing.T) {
	shared := newEmu(t, Config{LLC: llc(64 << 10)})
	private := newEmu(t, Config{LLC: llc(64 << 10), PrivatePerCore: 4})
	shared.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	private.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	// One core streams 32 KB repeatedly: fits the shared 64 KB but not
	// its 16 KB private slice.
	for pass := 0; pass < 4; pass++ {
		for a := 0; a < 32<<10; a += 64 {
			r := trace.Ref{Addr: mem.Addr(0x4000_0000 + a), Size: 8, Kind: mem.Load}
			shared.OnRef(r)
			private.OnRef(r)
		}
	}
	if shared.Stats().Misses >= private.Stats().Misses {
		t.Errorf("capacity division not visible: shared %d vs private %d misses",
			shared.Stats().Misses, private.Stats().Misses)
	}
}

func TestCBSampling(t *testing.T) {
	// 1 MHz clock and 500us period -> one sample per 500 cycles.
	e := newEmu(t, Config{LLC: llc(1 << 20), ClockHz: 1e6})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load})
	e.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: 499})
	if len(e.Samples()) != 0 {
		t.Fatal("sampled before the period elapsed")
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: 1750})
	samples := e.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3 (500, 1000, 1500)", len(samples))
	}
	if samples[0].Cycles != 500 || samples[2].Cycles != 1500 {
		t.Errorf("sample cycle stamps wrong: %+v", samples)
	}
	if samples[0].Misses != 1 {
		t.Errorf("sample did not capture the miss: %+v", samples[0])
	}
}

// TestSamplesReturnsCopy pins the aliasing contract: mutating the slice
// Samples returns must not corrupt the emulator's own sample log, and a
// sample recorded after the call must not leak into the earlier slice.
func TestSamplesReturnsCopy(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20), ClockHz: 1e6})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load})
	e.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: 500})
	first := e.Samples()
	if len(first) != 1 {
		t.Fatalf("got %d samples, want 1", len(first))
	}
	first[0].Misses = 999
	if got := e.Samples()[0].Misses; got == 999 {
		t.Error("caller mutation visible through a second Samples call")
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: 1000})
	if len(e.Samples()) != 2 {
		t.Fatal("second sample not recorded")
	}
	if len(first) != 1 {
		t.Errorf("earlier snapshot grew to %d samples", len(first))
	}
}

func TestSplitAccessAcrossLines(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	// 16-byte access straddling a 64 B boundary: two line lookups.
	e.OnRef(trace.Ref{Addr: 0x4000_0038, Size: 16, Kind: mem.Load})
	if got := e.Stats().Accesses; got != 2 {
		t.Errorf("straddling access performed %d lookups, want 2", got)
	}
}

func TestPerCoreAttribution(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load, Core: 5})
	e.OnRef(trace.Ref{Addr: 0x4000_1000, Size: 8, Kind: mem.Load, Core: 6})
	s := e.Stats()
	if s.PerCoreMisses[5] != 1 || s.PerCoreMisses[6] != 1 {
		t.Error("per-core miss attribution lost through banking")
	}
}

func TestReset(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20), ClockHz: 1e6})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load})
	e.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: 10_000})
	e.Reset()
	if e.Stats().Accesses != 0 || len(e.Samples()) != 0 || e.af.Open || e.Instructions() != 0 {
		t.Error("Reset left state behind")
	}
}

func BenchmarkOnRefHit(b *testing.B) {
	e, _ := New(Config{LLC: llc(1 << 20)})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load})
	}
}
