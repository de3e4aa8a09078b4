package verify

import (
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/oracle"
	"cmpmem/internal/trace"
)

// refGen is a deterministic xorshift reference generator producing a
// mix of sequential runs, strided walks, and random touches — enough
// locality structure to exercise hits, conflict misses, and capacity
// misses at the tiny cache sizes the tests use.
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
		case 0: // new random region
			base = g.next() % (1 << 20)
		case 1: // sequential run
			for i := 0; i < 16 && len(refs) < n; i++ {
				refs = append(refs, trace.Ref{Addr: mem.Addr(base + uint64(i)*8), Size: 8, Kind: mem.Load, Core: uint8(g.next() % 4)})
			}
		case 2: // strided walk (crosses sets)
			for i := 0; i < 8 && len(refs) < n; i++ {
				refs = append(refs, trace.Ref{Addr: mem.Addr(base + uint64(i)*256), Size: 4, Kind: mem.Store, Core: uint8(g.next() % 4)})
			}
		case 3: // single random touch, sometimes line-straddling
			sz := uint8(1 << (g.next() % 4))
			if g.next()%8 == 0 {
				sz = 64
			}
			refs = append(refs, trace.Ref{Addr: mem.Addr(g.next() % (1 << 20)), Size: sz, Kind: mem.Kind(g.next() % 2), Core: uint8(g.next() % 4)})
		}
	}
	return refs
}

// oracleGeometries is the grid the differential tests cross-check:
// several sizes and associativities at one line size.
func oracleGeometries() []cache.Config {
	var cfgs []cache.Config
	for _, size := range []uint64{4 << 10, 16 << 10, 64 << 10} {
		for _, assoc := range []int{1, 2, 8} {
			cfgs = append(cfgs, cache.Config{
				Name: "t", Size: size, LineSize: 64, Assoc: assoc, Repl: cache.LRU,
			})
		}
	}
	return cfgs
}

// deliver feeds a window-wrapped stream to the snoopers: start, the
// refs, stop.
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

// TestOracleDifferential is the tentpole property in miniature: the
// stack-distance oracle, the production cache, and the naive reference
// cache must agree exactly — misses, accesses, and (cache vs ref) full
// replacement state — on the same stream, for every geometry at once.
func TestOracleDifferential(t *testing.T) {
	refs := newRefGen(7).refs(20000)

	orc, err := oracle.New(64)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := oracleGeometries()
	type pair struct {
		cfg  cache.Config
		tr   *oracle.Tracked
		c    *cache.Cache
		ref  *RefCache
		cBus *BusAdapter
		rBus *BusAdapter
	}
	var pairs []pair
	snoopers := []fsb.Snooper{orc}
	for _, cfg := range cfgs {
		tr, err := orc.Track(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := NewRefCache(cfg.Size, cfg.LineSize, cfg.Assoc)
		if err != nil {
			t.Fatal(err)
		}
		p := pair{cfg: cfg, tr: tr, c: c, ref: rc, cBus: &BusAdapter{Target: c}, rBus: &BusAdapter{Target: rc}}
		pairs = append(pairs, p)
		snoopers = append(snoopers, p.cBus, p.rBus)
	}

	deliver(refs, snoopers...)

	for _, p := range pairs {
		st := p.c.Stats()
		want := p.tr.Misses()
		if st.Misses != want {
			t.Errorf("%d B/%d-way: cache %d misses, oracle predicts %d", p.cfg.Size, p.cfg.Assoc, st.Misses, want)
		}
		if p.ref.Misses() != want {
			t.Errorf("%d B/%d-way: ref cache %d misses, oracle predicts %d", p.cfg.Size, p.cfg.Assoc, p.ref.Misses(), want)
		}
		if st.Accesses != orc.Accesses() {
			t.Errorf("%d B/%d-way: cache saw %d accesses, oracle %d", p.cfg.Size, p.cfg.Assoc, st.Accesses, orc.Accesses())
		}
		if p.ref.Accesses() != st.Accesses {
			t.Errorf("%d B/%d-way: ref cache saw %d accesses, cache %d", p.cfg.Size, p.cfg.Assoc, p.ref.Accesses(), st.Accesses)
		}
		if err := DiffSnapshots(p.c.Snapshot(), p.ref.Snapshot()); err != nil {
			t.Errorf("%d B/%d-way: %v", p.cfg.Size, p.cfg.Assoc, err)
		}
	}
}

// TestOracleWindowGating checks the oracle drops exactly what the AF
// stage drops: pre-start traffic, post-stop traffic, and control
// messages.
func TestOracleWindowGating(t *testing.T) {
	orc, _ := oracle.New(64)
	if _, err := orc.Track(geom(16, 2)); err != nil {
		t.Fatal(err)
	}

	// Before the window opens: invisible.
	orc.OnRef(trace.Ref{Addr: 0x1000, Size: 8, Kind: mem.Load})
	if orc.Accesses() != 0 {
		t.Fatalf("pre-window ref counted: %d accesses", orc.Accesses())
	}
	orc.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	// A control message encoded as a transaction: invisible.
	orc.OnRef(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCycles, Value: 99}))
	if orc.Accesses() != 0 {
		t.Fatalf("message transaction counted: %d accesses", orc.Accesses())
	}
	// In-window line-straddling ref: two line-granular requests.
	orc.OnRef(trace.Ref{Addr: 0x103C, Size: 16, Kind: mem.Load})
	if orc.Accesses() != 2 {
		t.Fatalf("straddling ref made %d requests, want 2", orc.Accesses())
	}
	orc.OnMsg(fsb.Message{Kind: fsb.MsgStop})
	orc.OnRef(trace.Ref{Addr: 0x2000, Size: 8, Kind: mem.Load})
	if orc.Accesses() != 2 {
		t.Fatalf("post-window ref counted: %d accesses", orc.Accesses())
	}
}

// TestOracleInclusionAcrossAssoc checks Mattson's theorem end to end:
// at a fixed set count, predicted misses are non-increasing in
// associativity — and the MonotoneMisses invariant accepts the curve.
func TestOracleInclusionAcrossAssoc(t *testing.T) {
	orc, _ := oracle.New(64)
	assocs := []int{1, 2, 4, 8, 16}
	tracked := make([]*oracle.Tracked, len(assocs))
	for i, a := range assocs {
		var err error
		if tracked[i], err = orc.Track(geom(64, a)); err != nil {
			t.Fatal(err)
		}
	}
	deliver(newRefGen(42).refs(30000), orc)

	var points []MissPoint
	for i, a := range assocs {
		points = append(points, MissPoint{Label: label(a), Capacity: uint64(a), Misses: tracked[i].Misses()})
	}
	if err := MonotoneMisses(points); err != nil {
		t.Fatal(err)
	}
	// And the curve must not be degenerate: the smallest cache misses
	// strictly more than the biggest on a working set this size.
	if points[0].Misses <= points[len(points)-1].Misses {
		t.Fatalf("miss curve is flat: %v", points)
	}
}

// geom is the 64 B-line cache of the given set count and
// associativity.
func geom(sets uint64, assoc int) cache.Config {
	return cache.Config{Name: "g", Size: sets * uint64(assoc) * 64, LineSize: 64, Assoc: assoc}
}

func label(assoc int) string {
	return "assoc-" + string(rune('0'+assoc%10))
}

// TestOracleMisuse covers the guard rails still reachable through
// Track: bad line sizes, bad geometries, and a late Track.
func TestOracleMisuse(t *testing.T) {
	if _, err := oracle.New(0); err == nil {
		t.Error("line size 0 accepted")
	}
	if _, err := oracle.New(48); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	orc, _ := oracle.New(64)
	if _, err := orc.Track(geom(3, 2)); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if _, err := orc.Track(cache.Config{Name: "x", Size: 1 << 12, LineSize: 32, Assoc: 2}); err == nil {
		t.Error("mismatched line size accepted")
	}
	if _, err := orc.Track(geom(4, 2)); err != nil {
		t.Fatal(err)
	}
	orc.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	orc.OnRef(trace.Ref{Addr: 0, Size: 1, Kind: mem.Load})
	if _, err := orc.Track(geom(8, 2)); err == nil {
		t.Error("Track accepted after recording started")
	}
}

// TestRefCacheFullyAssociative checks the assoc-0 convention matches a
// fully-associative production cache.
func TestRefCacheFullyAssociative(t *testing.T) {
	refs := newRefGen(11).refs(5000)
	cfg := cache.Config{Name: "fa", Size: 8 << 10, LineSize: 64, Assoc: 0}
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRefCache(cfg.Size, cfg.LineSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(refs, &BusAdapter{Target: c}, &BusAdapter{Target: rc})
	st := c.Stats()
	if st.Misses != rc.Misses() || st.Accesses != rc.Accesses() {
		t.Fatalf("fully-associative divergence: cache %d/%d, ref %d/%d",
			st.Misses, st.Accesses, rc.Misses(), rc.Accesses())
	}
	if err := DiffSnapshots(c.Snapshot(), rc.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// TestRefCacheMisuse covers RefCache construction guards.
func TestRefCacheMisuse(t *testing.T) {
	cases := []struct {
		size, line uint64
		assoc      int
	}{
		{0, 64, 2},       // zero size
		{1 << 12, 0, 2},  // zero line
		{1 << 12, 48, 2}, // non-power-of-two line
		{100, 64, 2},     // size not multiple of line
		{1 << 12, 64, 7}, // assoc does not divide lines
		{3 << 12, 64, 1}, // set count not a power of two
	}
	for _, c := range cases {
		if _, err := NewRefCache(c.size, c.line, c.assoc); err == nil {
			t.Errorf("NewRefCache(%d,%d,%d) accepted", c.size, c.line, c.assoc)
		}
	}
}
