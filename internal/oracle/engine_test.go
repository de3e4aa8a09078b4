package oracle

import (
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// refGen is a deterministic xorshift reference generator producing a
// mix of sequential runs, strided walks, and random touches — the same
// locality structure the verify differential tests use.
type refGen struct{ state uint64 }

func newRefGen(seed uint64) *refGen {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &refGen{state: seed}
}

func (g *refGen) next() uint64 {
	g.state ^= g.state << 13
	g.state ^= g.state >> 7
	g.state ^= g.state << 17
	return g.state
}

func (g *refGen) refs(n int) []trace.Ref {
	refs := make([]trace.Ref, 0, n)
	var base uint64
	for len(refs) < n {
		switch g.next() % 4 {
		case 0:
			base = g.next() % (1 << 20)
		case 1:
			for i := 0; i < 16 && len(refs) < n; i++ {
				refs = append(refs, trace.Ref{Addr: mem.Addr(base + uint64(i)*8), Size: 8, Kind: mem.Load, Core: uint8(g.next() % 4)})
			}
		case 2:
			for i := 0; i < 8 && len(refs) < n; i++ {
				refs = append(refs, trace.Ref{Addr: mem.Addr(base + uint64(i)*256), Size: 4, Kind: mem.Store, Core: uint8(g.next() % 4)})
			}
		case 3:
			sz := uint8(1 << (g.next() % 4))
			if g.next()%8 == 0 {
				sz = 64
			}
			refs = append(refs, trace.Ref{Addr: mem.Addr(g.next() % (1 << 20)), Size: sz, Kind: mem.Kind(g.next() % 2), Core: uint8(g.next() % 4)})
		}
	}
	return refs
}

func deliver(refs []trace.Ref, snoopers ...fsb.Snooper) {
	for _, s := range snoopers {
		s.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	}
	for _, r := range refs {
		for _, s := range snoopers {
			s.OnRef(r)
		}
	}
	for _, s := range snoopers {
		s.OnMsg(fsb.Message{Kind: fsb.MsgStop})
	}
}

// trackedConfigs is the grid the full-Stats differential covers:
// direct-mapped through fully-associative, across sizes, at one line
// size — every analytically expressible shape.
func trackedConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, size := range []uint64{4 << 10, 16 << 10, 64 << 10} {
		for _, assoc := range []int{1, 2, 8} {
			cfgs = append(cfgs, cache.Config{Name: "t", Size: size, LineSize: 64, Assoc: assoc, Repl: cache.LRU})
		}
	}
	cfgs = append(cfgs, cache.Config{Name: "fa", Size: 8 << 10, LineSize: 64, Assoc: 0, Repl: cache.LRU})
	return cfgs
}

// TestTrackedStatsDifferential is the load-bearing property of the
// analytic engine: for every tracked geometry, the reconstructed
// cache.Stats — all fields, including evictions, writebacks, traffic,
// and both per-core arrays — must equal what the production cache
// reports after simulating the identical stream.
func TestTrackedStatsDifferential(t *testing.T) {
	for _, seed := range []uint64{7, 42, 1234} {
		refs := newRefGen(seed).refs(20000)
		eng, err := New(64)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct {
			tr *Tracked
			c  *cache.Cache
		}
		var pairs []pair
		for _, cfg := range trackedConfigs() {
			tr, err := eng.Track(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{tr, c})
		}

		eng.OnMsg(fsb.Message{Kind: fsb.MsgStart})
		for _, r := range refs {
			eng.OnRef(r)
			for _, p := range pairs {
				p.c.Access(r.Addr, r.Size, r.Kind, r.Core)
			}
		}
		eng.OnMsg(fsb.Message{Kind: fsb.MsgStop})

		for _, p := range pairs {
			got := p.tr.Stats()
			want := *p.c.Stats()
			if got != want {
				t.Errorf("seed %d, %d B/%d-way: analytic stats diverge\n got %+v\nwant %+v",
					seed, p.tr.cfg.Size, p.tr.cfg.Assoc, got, want)
			}
		}
	}
}

// TestTrackedWritebackByHand pins the writeback derivation on streams
// small enough to verify on paper (direct-mapped, one set).
func TestTrackedWritebackByHand(t *testing.T) {
	cfg := cache.Config{Name: "dm", Size: 64, LineSize: 64, Assoc: 1, Repl: cache.LRU}
	cases := []struct {
		name             string
		refs             []trace.Ref
		wantMisses       uint64
		wantEvict        uint64
		wantWB           uint64
		wantTrafficBytes uint64
	}{
		{
			// Store A, load B (evicts dirty A -> wb), load A (evicts
			// clean B). A's refetch is clean; final resident A clean.
			name: "gap-observed writeback",
			refs: []trace.Ref{
				{Addr: 0, Size: 1, Kind: mem.Store},
				{Addr: 64, Size: 1, Kind: mem.Load},
				{Addr: 0, Size: 1, Kind: mem.Load},
			},
			wantMisses: 3, wantEvict: 2, wantWB: 1, wantTrafficBytes: 64 * 4,
		},
		{
			// Store A, store B: A is evicted dirty but never reused —
			// only the end-of-trace sweep can see that writeback.
			name: "residual writeback",
			refs: []trace.Ref{
				{Addr: 0, Size: 1, Kind: mem.Store},
				{Addr: 64, Size: 1, Kind: mem.Store},
			},
			wantMisses: 2, wantEvict: 1, wantWB: 1, wantTrafficBytes: 64 * 3,
		},
		{
			// Load A, store A (dirties resident line), load B (evicts
			// dirty A), load A: hit-side dirtying must be observed.
			name: "dirtied by hit",
			refs: []trace.Ref{
				{Addr: 0, Size: 1, Kind: mem.Load},
				{Addr: 0, Size: 1, Kind: mem.Store},
				{Addr: 64, Size: 1, Kind: mem.Load},
				{Addr: 0, Size: 1, Kind: mem.Load},
			},
			wantMisses: 3, wantEvict: 2, wantWB: 1, wantTrafficBytes: 64 * 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := New(64)
			tr, err := eng.Track(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := cache.New(cfg)
			deliver(tc.refs, eng, &busAdapter{c})
			got := tr.Stats()
			if got.Misses != tc.wantMisses || got.Evictions != tc.wantEvict ||
				got.Writebacks != tc.wantWB || got.TrafficBytes != tc.wantTrafficBytes {
				t.Errorf("analytic: misses=%d evict=%d wb=%d traffic=%d, want %d/%d/%d/%d",
					got.Misses, got.Evictions, got.Writebacks, got.TrafficBytes,
					tc.wantMisses, tc.wantEvict, tc.wantWB, tc.wantTrafficBytes)
			}
			if want := *c.Stats(); got != want {
				t.Errorf("diverges from simulation:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// busAdapter drives a cache.Cache from a snooper stream with the same
// window gating the engine applies.
type busAdapter struct{ c *cache.Cache }

func (b *busAdapter) OnRef(r trace.Ref) { b.c.Access(r.Addr, r.Size, r.Kind, r.Core) }
func (b *busAdapter) OnMsg(fsb.Message) {}

// TestSamplesMatchDragonhead checks the CB mirror: with sampling
// enabled, the engine's per-sample series for a tracked geometry is
// element-wise identical to the banked Dragonhead emulator's on the
// same interleaved ref/message stream — the property that lets the
// planner answer Fig 8-style curves analytically.
func TestSamplesMatchDragonhead(t *testing.T) {
	llc := cache.Config{Name: "LLC", Size: 64 << 10, LineSize: 64, Assoc: 8, Repl: cache.LRU}
	emu, err := dragonhead.New(dragonhead.Config{LLC: llc, Banks: 4, ClockHz: 1e6, SamplePeriod: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableSampling(1e6, 1e-3); err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Track(llc)
	if err != nil {
		t.Fatal(err)
	}

	g := newRefGen(99)
	refs := g.refs(30000)
	snoopers := []fsb.Snooper{emu, eng}
	for _, s := range snoopers {
		s.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	}
	var cycles uint64
	for i, r := range refs {
		for _, s := range snoopers {
			s.OnRef(r)
		}
		if i%64 == 0 {
			cycles += 200 + g.next()%1800 // crosses 0..2 sample boundaries
			for _, s := range snoopers {
				s.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: uint8(i % 4), Value: uint64(i) * 3})
				s.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: cycles})
			}
		}
	}
	for _, s := range snoopers {
		s.OnMsg(fsb.Message{Kind: fsb.MsgStop})
	}
	emu.Finalize()

	want := emu.Samples()
	got := tr.Samples()
	if len(want) == 0 {
		t.Fatal("no samples collected; stream too short for the period")
	}
	if len(got) != len(want) {
		t.Fatalf("sample counts diverge: analytic %d, emulated %d", len(got), len(want))
	}
	for i := range want {
		g := dragonhead.Sample(got[i])
		if g != want[i] {
			t.Fatalf("sample %d diverges: analytic %+v, emulated %+v", i, g, want[i])
		}
	}
	st := emu.Stats()
	if tr.Misses() != st.Misses || eng.Accesses() != st.Accesses {
		t.Fatalf("totals diverge: analytic %d/%d, emulated %d/%d",
			tr.Misses(), eng.Accesses(), st.Misses, st.Accesses)
	}
	if eng.Ignored() != emu.Ignored() {
		t.Fatalf("ignored diverge: analytic %d, emulated %d", eng.Ignored(), emu.Ignored())
	}
	if eng.Instructions() != emu.Instructions() {
		t.Fatalf("instructions diverge: analytic %d, emulated %d", eng.Instructions(), emu.Instructions())
	}
	if tr.MPKI() != emu.MPKI() {
		t.Fatalf("MPKI diverges: analytic %g, emulated %g", tr.MPKI(), emu.MPKI())
	}
}

// TestEngineMisuse covers the guard rails specific to the engine (the
// shared oracle guards are covered by internal/verify's tests).
func TestEngineMisuse(t *testing.T) {
	if _, err := New(48); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	eng, _ := New(64)
	if _, err := eng.Track(cache.Config{Name: "odd", Size: 3 << 7, LineSize: 64, Assoc: 2}); err == nil {
		t.Error("non-power-of-two set count tracked")
	}
	if _, err := eng.Track(cache.Config{Name: "odd", Size: 1 << 12, LineSize: 64, Assoc: 3}); err == nil {
		t.Error("associativity that does not divide the lines tracked")
	}
	if _, err := eng.Track(cache.Config{Name: "f", Size: 1 << 12, LineSize: 64, Assoc: 2, Repl: cache.FIFO}); err == nil {
		t.Error("FIFO config tracked")
	}
	if _, err := eng.Track(cache.Config{Name: "s", Size: 1 << 12, LineSize: 64, Assoc: 2, SectorSize: 16}); err == nil {
		t.Error("sectored config tracked")
	}
	if _, err := eng.Track(cache.Config{Name: "l", Size: 1 << 12, LineSize: 128, Assoc: 2}); err == nil {
		t.Error("mismatched line size tracked")
	}
	if err := eng.EnableSampling(0, 1e-3); err == nil {
		t.Error("zero clock accepted")
	}
	eng.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	eng.OnRef(trace.Ref{Addr: 0, Size: 1, Kind: mem.Load})
	if err := eng.EnableSampling(1e6, 1e-3); err == nil {
		t.Error("EnableSampling accepted after recording started")
	}
	if _, err := eng.Track(cache.Config{Name: "late", Size: 1 << 12, LineSize: 64, Assoc: 2}); err == nil {
		t.Error("Track accepted after recording started")
	}

	// The engine-wide dirty bitmask caps tracked geometries at 64.
	eng2, _ := New(64)
	var err error
	for a := 0; a <= MaxTracked; a++ {
		cfg := cache.Config{Name: "n", Size: 64 << 10, LineSize: 64, Assoc: 16}
		_, err = eng2.Track(cfg)
	}
	if err == nil {
		t.Error("more than 64 tracked geometries in one engine accepted")
	}
}
