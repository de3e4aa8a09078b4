package stackdist

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"cmpmem/internal/cache"
	"cmpmem/internal/mem"
)

func TestColdAndRepeat(t *testing.T) {
	a := New(64, 1024)
	if d := a.Record(0x1000); d != Infinite {
		t.Errorf("first touch distance = %d, want Infinite", d)
	}
	if d := a.Record(0x1000); d != 0 {
		t.Errorf("immediate re-reference distance = %d, want 0", d)
	}
	if d := a.Record(0x1010); d != 0 {
		t.Errorf("same-line offset distance = %d, want 0", d)
	}
	a.Record(0x2000)
	if d := a.Record(0x1000); d != 1 {
		t.Errorf("distance after one intervening line = %d, want 1", d)
	}
}

func TestDistinctLinesAndCold(t *testing.T) {
	a := New(64, 128)
	for i := 0; i < 10; i++ {
		a.Record(mem.Addr(i * 64))
	}
	if a.DistinctLines() != 10 || a.Cold() != 10 {
		t.Errorf("distinct=%d cold=%d, want 10/10", a.DistinctLines(), a.Cold())
	}
	if a.Total() != 10 {
		t.Errorf("total=%d, want 10", a.Total())
	}
}

// TestOracleAgainstFullyAssociativeCache: the central property — for any
// trace and any capacity, MissesForLines(N) equals the misses of a
// direct-simulated fully-associative LRU cache of N lines.
func TestOracleAgainstFullyAssociativeCache(t *testing.T) {
	check := func(seed int64, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nLines := int(spread)%60 + 4
		an := New(64, 4096)
		caches := map[int]*cache.Cache{}
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			c, err := cache.New(cache.Config{Name: "fa", Size: uint64(n) * 64, LineSize: 64, Assoc: 0})
			if err != nil {
				return false
			}
			caches[n] = c
		}
		for i := 0; i < 2000; i++ {
			addr := mem.Addr(rng.Intn(nLines) * 64)
			an.Record(addr)
			for _, c := range caches {
				c.Access(addr, 8, mem.Load, 0)
			}
		}
		for n, c := range caches {
			if an.MissesForLines(n) != c.Stats().Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCompaction: long traces with shifting working sets force tree
// growth and compaction; the oracle must stay exact throughout.
func TestCompactionCorrectness(t *testing.T) {
	an := New(64, 1<<16)
	c, _ := cache.New(cache.Config{Name: "fa", Size: 128 * 64, LineSize: 64, Assoc: 0})
	rng := rand.New(rand.NewSource(7))
	base := 0
	for phase := 0; phase < 20; phase++ {
		base += 1000 // shift the working set to churn dead slots
		for i := 0; i < 3000; i++ {
			addr := mem.Addr((base + rng.Intn(500)) * 64)
			an.Record(addr)
			c.Access(addr, 8, mem.Load, 0)
		}
	}
	if got, want := an.MissesForLines(128), c.Stats().Misses; got != want {
		t.Errorf("after compactions: oracle %d, cache %d", got, want)
	}
}

// TestMissCurveMonotone: more capacity never means more misses.
func TestMissCurveMonotone(t *testing.T) {
	an := New(64, 4096)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		an.Record(mem.Addr(rng.Intn(3000) * 64))
	}
	caps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	curve := make([]uint64, len(caps))
	for i, c := range caps {
		curve[i] = an.MissesForLines(c)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("miss curve not monotone at %d lines: %d > %d", caps[i], curve[i], curve[i-1])
		}
	}
	if curve[0] != an.Total() {
		// Capacity 1: every reference to a different line misses; with
		// random addresses over 3000 lines, hits at distance 0 are rare
		// but possible — only assert it is bounded by total.
		if curve[0] > an.Total() {
			t.Errorf("misses at capacity 1 exceed total")
		}
	}
}

func TestHistogramAccounting(t *testing.T) {
	an := New(64, 8)
	// Distance pattern: touch 4 lines then re-touch the first (depth 3).
	for i := 0; i < 4; i++ {
		an.Record(mem.Addr(i * 64))
	}
	an.Record(0)
	hist, overflow := an.Histogram()
	if hist[3] != 1 {
		t.Errorf("hist[3] = %d, want 1", hist[3])
	}
	if overflow != 0 {
		t.Errorf("overflow = %d, want 0", overflow)
	}
}

func TestOverflowBucket(t *testing.T) {
	an := New(64, 4) // histogram depth 4
	for i := 0; i < 10; i++ {
		an.Record(mem.Addr(i * 64))
	}
	an.Record(0) // depth 9 -> overflow
	_, overflow := an.Histogram()
	if overflow != 1 {
		t.Errorf("overflow = %d, want 1", overflow)
	}
	// Deep references count as misses for any in-histogram capacity.
	if an.MissesForLines(4) != 11 {
		t.Errorf("MissesForLines(4) = %d, want 11 (10 cold + 1 deep)", an.MissesForLines(4))
	}
}

func TestWorkingSetLines(t *testing.T) {
	an := New(64, 1024)
	// Cyclic scan over 100 lines, many passes: knee at exactly 100.
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 100; i++ {
			an.Record(mem.Addr(i * 64))
		}
	}
	ws := an.WorkingSetLines(0.02)
	if ws != 100 {
		t.Errorf("working set = %d lines, want 100", ws)
	}
	if got := an.WorkingSetLines(-1); got != -1 {
		t.Errorf("impossible threshold returned %d, want -1", got)
	}
}

func TestMissesForNegativeLines(t *testing.T) {
	an := New(64, 16)
	an.Record(0)
	if an.MissesForLines(-5) != an.MissesForLines(0) {
		t.Error("negative capacity should clamp to 0")
	}
}

func BenchmarkRecord(b *testing.B) {
	an := New(64, 1<<16)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]mem.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Intn(1<<14) * 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Record(addrs[i&(1<<16-1)])
	}
}

// mtf is the reference the kernel is checked against: the LRU stack as
// a plain move-to-front list, O(depth) per reference and obviously
// right. It mirrors the Analyzer's observable state.
type mtf struct {
	stack    []uint64 // stack[0] is the most recent line
	tags     map[uint64]uint32
	hist     []uint64
	overflow uint64
	cold     uint64
}

func newMTF(maxLines int) *mtf {
	return &mtf{tags: make(map[uint64]uint32), hist: make([]uint64, maxLines)}
}

func (m *mtf) record(line uint64, tag uint32) (dist, prevTag uint32) {
	prevTag = m.tags[line]
	m.tags[line] = tag
	for i, l := range m.stack {
		if l == line {
			copy(m.stack[1:i+1], m.stack[:i])
			m.stack[0] = line
			if i < len(m.hist) {
				m.hist[i]++
			} else {
				m.overflow++
			}
			return uint32(i), prevTag
		}
	}
	m.cold++
	m.stack = append(m.stack, 0)
	copy(m.stack[1:], m.stack)
	m.stack[0] = line
	return Infinite, prevTag
}

// diffStream drives the Analyzer and the move-to-front reference with
// one line stream and compares everything the Analyzer exposes: every
// distance and previous tag as it is returned, then Cold,
// DistinctLines, Total, Histogram and FinalDepths.
func diffStream(t testing.TB, lineSize uint64, maxLines int, lines []uint64) {
	t.Helper()
	a := New(lineSize, maxLines)
	m := newMTF(maxLines)
	for i, ln := range lines {
		tag := uint32(i%5) + 1
		// Vary the offset inside the line: it must not matter.
		addr := mem.Addr(ln*lineSize + uint64(i)%lineSize)
		d, prev := a.RecordTagged(addr, tag)
		wd, wprev := m.record(ln, tag)
		if d != wd || prev != wprev {
			t.Fatalf("ref %d (line %d): distance %d tag %d, reference %d tag %d", i, ln, d, prev, wd, wprev)
		}
	}
	if a.Cold() != m.cold || a.DistinctLines() != len(m.stack) || a.Total() != uint64(len(lines)) {
		t.Fatalf("cold %d distinct %d total %d, reference %d %d %d",
			a.Cold(), a.DistinctLines(), a.Total(), m.cold, len(m.stack), len(lines))
	}
	hist, overflow := a.Histogram()
	if overflow != m.overflow {
		t.Fatalf("overflow %d, reference %d", overflow, m.overflow)
	}
	for d := range hist {
		if hist[d] != m.hist[d] {
			t.Fatalf("hist[%d] = %d, reference %d", d, hist[d], m.hist[d])
		}
	}
	seen := make(map[uint64]bool, len(m.stack))
	a.FinalDepths(func(line uint64, depth int) {
		if seen[line] || depth < 0 || depth >= len(m.stack) || m.stack[depth] != line {
			t.Fatalf("FinalDepths(line %d) = %d (repeated %v), reference stack disagrees", line, depth, seen[line])
		}
		seen[line] = true
	})
	if len(seen) != len(m.stack) {
		t.Fatalf("FinalDepths visited %d lines, reference holds %d", len(seen), len(m.stack))
	}
}

// boundaryStream fills k lines cold and then keeps landing reuses on the
// structure's boundaries: an old line (its slot is among the lowest, so
// the move spans the whole bitset and, every 64 slots, a compaction),
// a fresh line (table growth and a new top slot), the top line again
// (the MRU path), and the line just under it (a move inside one
// 64-slot word).
func boundaryStream(k, steps int) []uint64 {
	lines := make([]uint64, 0, k+4*steps)
	for i := 0; i < k; i++ {
		lines = append(lines, uint64(i))
	}
	fresh, oldest := uint64(k), uint64(0)
	for s := 0; s < steps; s++ {
		lines = append(lines, oldest, fresh, fresh, oldest)
		oldest = (oldest + 1) % fresh
		fresh++
	}
	return lines
}

// TestDifferentialAgainstMoveToFront checks the table-and-bitset kernel
// against the naive list on streams chosen to cross its internal
// boundaries: the line table doubles at 3/4 load (6, 12, 24, ... lines),
// slots run out every 64 and trigger a rank compaction, and a bitset
// word holds 64 slots.
func TestDifferentialAgainstMoveToFront(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streams := map[string][]uint64{}

	for _, n := range []int{1, 5, 7, 63, 64, 65, 200} {
		s := make([]uint64, 4000)
		for i := range s {
			s[i] = uint64(rng.Intn(n))
		}
		streams[fmt.Sprintf("random/%d", n)] = s
	}

	for _, stride := range []uint64{1, 3, 64, 1 << 20} {
		s := make([]uint64, 3000)
		for i := range s {
			s[i] = uint64(i%97) * stride
		}
		streams[fmt.Sprintf("strided/%d", stride)] = s
	}

	repeat := make([]uint64, 0, 2000)
	for i := 0; i < 400; i++ {
		ln := uint64(rng.Intn(40))
		for r := 0; r < 1+rng.Intn(8); r++ {
			repeat = append(repeat, ln)
		}
	}
	streams["same-line-repeat"] = repeat

	for _, k := range []int{1, 5, 6, 7, 12, 13, 47, 48, 49, 63, 64, 65, 127, 128, 129} {
		streams[fmt.Sprintf("boundary/%d", k)] = boundaryStream(k, 150)
	}

	// Lines that collide in the low bits and at the top of the address
	// space: the hash must spread them and line 0 must be a line.
	sparse := make([]uint64, 3000)
	for i := range sparse {
		sparse[i] = uint64(rng.Intn(90)) << 40
	}
	streams["sparse-high-bits"] = sparse

	for name, s := range streams {
		t.Run(name, func(t *testing.T) {
			diffStream(t, 64, 32, s)
			diffStream(t, 1, 1, s)
		})
	}
}

// FuzzStackDist is the same differential on fuzzer-chosen streams: the
// first byte picks the footprint, every later byte a line in it (high
// values repeat the previous line, so runs are common).
func FuzzStackDist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 1, 2, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := uint64(data[0]) + 1
		lines := make([]uint64, 0, len(data)-1)
		var last uint64
		for _, b := range data[1:] {
			if b < 224 {
				last = uint64(b) * 7 % n
			}
			lines = append(lines, last)
		}
		diffStream(t, 64, 16, lines)
	})
}

// TestAnalyzerStartsSmall bounds what an idle Analyzer costs: the
// oracle's deep families create one per touched set, so construction
// must not pre-size for a footprint that may never come.
func TestAnalyzerStartsSmall(t *testing.T) {
	var before, after runtime.MemStats
	const n = 1000
	keep := make([]*Analyzer, n)
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(1, 16)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 768 {
		t.Errorf("New(1, 16) allocates %d bytes, want <= 768", per)
	}
}

// TestRecordSteadyStateAllocs: once the footprint has been seen, Record
// allocates nothing — table, bitset and tree are reused across the
// compactions a long stream keeps triggering.
func TestRecordSteadyStateAllocs(t *testing.T) {
	a := New(64, 16)
	const lines = 1000
	next := 0
	touch := func() {
		for i := 0; i < 4*lines; i++ { // several compactions per run
			a.Record(mem.Addr(next % lines * 64))
			next += 7
		}
	}
	touch()
	if allocs := testing.AllocsPerRun(10, touch); allocs != 0 {
		t.Errorf("steady-state Record: %v allocs per %d references, want 0", allocs, 4*lines)
	}
}
