package oracle

import (
	"reflect"
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

// TestLineTableHoldsStoredBlocks pins what the line table holds: only
// blocks a store has touched, since a never-stored block's dirty mask
// is zero in every geometry and a load only reads and clears mask bits.
// A load-only stream leaves it empty; stores to k distinct blocks make
// k members, which reloads after dirty evictions leave at k; and every
// handle's Stats still equals the simulated cache's.
func TestLineTableHoldsStoredBlocks(t *testing.T) {
	eng, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	var trs []*Tracked
	var caches []*cache.Cache
	for _, cfg := range trackedConfigs() {
		tr, err := eng.Track(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trs, caches = append(trs, tr), append(caches, c)
	}
	bus := []fsb.Snooper{eng}
	for _, c := range caches {
		bus = append(bus, &busAdapter{c})
	}
	send := func(refs []trace.Ref) {
		for _, r := range refs {
			for _, s := range bus {
				s.OnRef(r)
			}
		}
	}
	walk := func(n, stride uint64, kind mem.Kind) []trace.Ref {
		refs := make([]trace.Ref, n)
		for i := range refs {
			refs[i] = trace.Ref{Addr: mem.Addr(uint64(i) * stride), Size: 8, Kind: kind, Core: uint8(i % 4)}
		}
		return refs
	}
	for _, s := range bus {
		s.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	}
	send(walk(4096, 64, mem.Load))
	if eng.lines.n != 0 {
		t.Fatalf("after a load-only stream the line table holds %d blocks, want 0", eng.lines.n)
	}
	const k = 37
	send(walk(k, 3*64, mem.Store)) // k distinct blocks, some loaded before
	if eng.lines.n != k {
		t.Fatalf("after stores to %d blocks the line table holds %d", k, eng.lines.n)
	}
	send(walk(8192, 64, mem.Load)) // evicts the dirty blocks from every geometry
	send(walk(k, 3*64, mem.Load))  // and reloads them
	send(walk(k, 3*64, mem.Store)) // dirties them again: no new member
	send(walk(2048, 64, mem.Load))
	if eng.lines.n != k {
		t.Fatalf("after reloads the line table holds %d blocks, want %d", eng.lines.n, k)
	}
	if eng.lines.clean != (lineCell{}) {
		t.Fatalf("the clean cell reads %+v", eng.lines.clean)
	}
	for i, tr := range trs {
		got, want := tr.Stats(), *caches[i].Stats()
		if want.Writebacks == 0 {
			t.Fatalf("%d B/%d-way: no writeback, so no dirty eviction was exercised", tr.cfg.Size, tr.cfg.Assoc)
		}
		if got != want {
			t.Errorf("%d B/%d-way: analytic stats diverge\n got %+v\nwant %+v", tr.cfg.Size, tr.cfg.Assoc, got, want)
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

// TestOnBatchMatchesPerEvent holds Engine.OnBatch, which hands one-line
// requests straight to record, to one OnRef per event: Tracked.Stats,
// Samples, Accesses, Ignored and Instructions. The stream runs loads on
// one line from one core (top-of-set requests), switching core and
// crossing 500 µs sample boundaries inside the runs, and mixes in
// stores, straddlers, zero sizes and a shut window. One grid is bounded
// stacks only; the other adds a fully associative (Fenwick) family.
func TestOnBatchMatchesPerEvent(t *testing.T) {
	g := newRefGen(11)
	stream := []trace.Ref{{Addr: 0x40, Size: 8}, encMsg(fsb.MsgStart, 0, 0)}
	var cycles uint64
	core := uint8(0)
	for run := 0; run < 400; run++ {
		if run == 200 {
			stream = append(stream, encMsg(fsb.MsgStop, 0, 0), trace.Ref{Addr: 0x80, Size: 8}, encMsg(fsb.MsgStart, 0, 0))
		}
		x := mem.Addr(g.next() % (1 << 16))
		for k := 0; k < 24; k++ {
			switch g.next() % 16 {
			case 0:
				core = uint8(g.next() % 4) // a switch inside the run
			case 1:
				cycles += 300
				stream = append(stream, encMsg(fsb.MsgCycles, 0, cycles)) // a CB boundary inside the run
			case 2:
				stream = append(stream, trace.Ref{Addr: x&^63 + 60, Size: 8, Kind: mem.Load, Core: core})
			case 3:
				stream = append(stream, trace.Ref{Addr: x, Size: 0, Kind: mem.Load, Core: core})
			case 4:
				stream = append(stream, trace.Ref{Addr: x, Size: 4, Kind: mem.Store, Core: core})
			case 5:
				x = mem.Addr(g.next() % (1 << 16))
			}
			stream = append(stream, trace.Ref{Addr: x, Size: 8, Kind: mem.Load, Core: core})
		}
		stream = append(stream, encMsg(fsb.MsgInstRetired, core, uint64(run)*100))
	}
	var batches [][]trace.Ref
	for i := 0; i < len(stream); i += 61 {
		batches = append(batches, stream[i:min(i+61, len(stream))])
	}
	for name, cfgs := range batchGrids() {
		checkBatchMatchesPerEvent(t, name, cfgs, batches, 100)
	}
}

// TestOnBatchRunExits ends OnBatch's call-free run of top-of-set loads
// at each of its exits in turn, and once not at all over a run longer
// than a bus batch, and holds each case to one OnRef per event. One case
// reloads X after 600 lines of other sets: X still tops every stack, but
// a fully associative family must see the reload as deep, so the loop
// stays off beside a Fenwick family. A run can only start once the
// engine has frozen its families, so a first batch records a load of
// line X, topping its set; the case's events follow in batches.
func TestOnBatchRunExits(t *testing.T) {
	const x, y = 0x10040, 0x20040 // lines 0x401 and 0x801: one set in every family of both grids
	load := func(a mem.Addr, core uint8) trace.Ref { return trace.Ref{Addr: a, Size: 8, Kind: mem.Load, Core: core} }
	loads := func(n int, a mem.Addr, core uint8) []trace.Ref {
		refs := make([]trace.Ref, n)
		for i := range refs {
			refs[i] = load(a+mem.Addr(i%7*8), core)
		}
		return refs
	}
	cat := func(parts ...[]trace.Ref) []trace.Ref {
		var out []trace.Ref
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	one := func(r trace.Ref) []trace.Ref { return []trace.Ref{r} }
	// 600 lines outside X's set in every stack family, so X stays on top
	// there while it sinks past the fully associative family's 512 ways.
	var others []trace.Ref
	for b := mem.Addr(0x1000); len(others) < 600; b++ {
		if b%32 != 0x401%32 {
			others = append(others, load(b<<6, 1))
		}
	}
	cases := []struct {
		name  string
		exit  []trace.Ref
		after mem.Addr // the address the run resumes on
	}{
		{"core switch", loads(1, x, 3), x},
		{"cycles inside a run", one(encMsg(fsb.MsgCycles, 0, 450)), x},
		{"stop and start", cat(one(encMsg(fsb.MsgStop, 0, 0)), loads(3, x, 1), one(encMsg(fsb.MsgStart, 0, 0))), x},
		{"zero size", one(trace.Ref{Addr: x, Size: 0, Kind: mem.Load, Core: 1}), x},
		{"straddler", one(trace.Ref{Addr: x + 60, Size: 8, Kind: mem.Load, Core: 1}), x},
		{"store", one(trace.Ref{Addr: x + 8, Size: 4, Kind: mem.Store, Core: 1}), x},
		{"not on top", loads(1, y, 1), x},
		{"not on top, then on top", loads(1, y, 1), y},
		{"on top of every stack after 600 other lines", others, x},
	}
	prefix := []trace.Ref{encMsg(fsb.MsgStart, 0, 0), load(x, 1), encMsg(fsb.MsgCycles, 0, 50)}
	tail := []trace.Ref{encMsg(fsb.MsgInstRetired, 1, 900), encMsg(fsb.MsgCycles, 0, 950), encMsg(fsb.MsgStop, 0, 0)}
	for name, cfgs := range batchGrids() {
		for _, tc := range cases {
			body := cat(loads(5, x, 1), tc.exit, loads(5, tc.after, 1))
			checkBatchMatchesPerEvent(t, name+", "+tc.name, cfgs, [][]trace.Ref{prefix, body, tail}, 9)
		}
		// A run longer than a batch: every batch of it is one run.
		long := loads(2*fsb.DefaultBatch+5, x, 1)
		batches := [][]trace.Ref{prefix}
		for i := 0; i < len(long); i += fsb.DefaultBatch {
			batches = append(batches, long[i:min(i+fsb.DefaultBatch, len(long))])
		}
		checkBatchMatchesPerEvent(t, name+", a run over whole batches", cfgs, append(batches, tail), 9)
	}
}

func encMsg(k fsb.MsgKind, core uint8, v uint64) trace.Ref {
	return fsb.EncodeMessage(fsb.Message{Kind: k, Core: core, Value: v})
}

// batchGrids are the OnBatch tests' geometries: bounded stacks only,
// where top-of-set loads take the call-free run, and a grid with a
// fully associative (Fenwick) family, which must see every request.
func batchGrids() map[string][]cache.Config {
	return map[string][]cache.Config{
		"stacks": {
			{Name: "a", Size: 16 << 10, LineSize: 64, Assoc: 8},
			{Name: "b", Size: 64 << 10, LineSize: 64, Assoc: 8},
			{Name: "c", Size: 64 << 10, LineSize: 64, Assoc: 2},
		},
		"stacks and Fenwick": {
			{Name: "a", Size: 16 << 10, LineSize: 64, Assoc: 8},
			{Name: "fa", Size: 2 * fastDepth * 64, LineSize: 64},
		},
	}
}

// checkBatchMatchesPerEvent feeds batches to one engine through OnBatch
// and their events to another through OnRef, both tracking cfgs with
// 100 µs samples at 1 MHz, and fails unless Accesses, Ignored,
// Instructions and every handle's Stats and Samples agree, with at
// least minSamples samples.
func checkBatchMatchesPerEvent(t *testing.T, name string, cfgs []cache.Config, batches [][]trace.Ref, minSamples int) {
	t.Helper()
	engines := [2]*Engine{}
	tracked := [2][]*Tracked{}
	for k := range engines {
		e, err := New(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableSampling(1e6, 1e-4); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			tr, err := e.Track(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tracked[k] = append(tracked[k], tr)
		}
		engines[k] = e
	}
	for _, b := range batches {
		engines[0].OnBatch(b)
		for _, r := range b {
			engines[1].OnRef(r)
		}
	}
	got, want := engines[0], engines[1]
	if got.Accesses() != want.Accesses() || got.Ignored() != want.Ignored() || got.Instructions() != want.Instructions() {
		t.Fatalf("%s: accesses/ignored/instructions %d/%d/%d in batches, %d/%d/%d per event", name,
			got.Accesses(), got.Ignored(), got.Instructions(), want.Accesses(), want.Ignored(), want.Instructions())
	}
	for i, tr := range tracked[0] {
		if g, w := tr.Stats(), tracked[1][i].Stats(); g != w {
			t.Fatalf("%s, %s: Stats diverge\n got %+v\nwant %+v", name, cfgs[i].Name, g, w)
		}
		if g, w := tr.Samples(), tracked[1][i].Samples(); len(w) < minSamples || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s, %s: %d samples in batches, %d per event (want at least %d, equal)\n got %+v\nwant %+v",
				name, cfgs[i].Name, len(g), len(w), minSamples, g, w)
		}
	}
}
