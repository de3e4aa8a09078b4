package oracle

import (
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// The fuzz input of FuzzTrackedStats: a five-byte header picks the
// geometries, every four bytes after it are one bus transaction.
//
//	data[0]    bits 0-1: set counts - 1; bits 2-3: log2 of the coarsest
//	           set count; bit 4: set counts double (0) or quadruple (1);
//	           bit 5: add a 512-line fully-associative geometry, deep
//	           enough for the Fenwick representation
//	data[1..4] one byte per set count: bits 0-1 pick 1-3 associativities,
//	           bits 2-3, 4-5, 6-7 index fuzzAssocs for each
//	then       addr lo, addr hi, size, flags — flags bit 0: store; bits
//	           1-2: core; bit 3: size as given (else its low 4 bits, so
//	           zero-size and straddlers stay common); bits 4-6 all set:
//	           the transaction falls outside the emulation window
const fuzzHeader = 5

var fuzzAssocs = [4]int{1, 2, 3, 8}

func fuzzGeometries(hdr []byte) []cache.Config {
	var cfgs []cache.Config
	nsets := int(hdr[0]&3) + 1
	exp := uint(hdr[0] >> 2 & 3)
	step := uint(hdr[0]>>4&1) + 1
	for i := 0; i < nsets; i++ {
		sets := uint64(1) << (exp + uint(i)*step)
		g := hdr[1+i]
		for j := 0; j < int(g&3)%3+1; j++ {
			assoc := fuzzAssocs[g>>(2+2*uint(j))&3]
			cfgs = append(cfgs, cache.Config{Name: "g", Size: sets * uint64(assoc) * 64, LineSize: 64, Assoc: assoc, Repl: cache.LRU})
		}
	}
	if hdr[0]>>5&1 == 1 {
		cfgs = append(cfgs, cache.Config{Name: "fa", Size: 2 * fastDepth * 64, LineSize: 64, Assoc: 0, Repl: cache.LRU})
	}
	return cfgs
}

// fuzzRef decodes one transaction; inWindow reports whether the AF
// window is open for it.
func fuzzRef(b []byte) (r trace.Ref, inWindow bool) {
	size := b[2] & 15
	if b[3]&8 != 0 {
		size = b[2]
	}
	r = trace.Ref{
		Addr: mem.Addr(uint64(b[0]) | uint64(b[1])<<8),
		Size: size,
		Kind: mem.Kind(b[3] & 1),
		Core: b[3] >> 1 & 3,
	}
	return r, b[3]>>4&7 != 7
}

// mtf is the brute-force model of one set count: an unbounded
// move-to-front list per set, so a block's index is its LRU distance.
type mtf struct {
	setMask uint64
	lists   map[uint64][]uint64
	hist    []uint64 // distances below len(hist), merged over sets
}

func (m *mtf) touch(blk uint64) {
	set := blk & m.setMask
	l := m.lists[set]
	for i, b := range l {
		if b == blk {
			copy(l[1:i+1], l[:i])
			l[0] = blk
			if i < len(m.hist) {
				m.hist[i]++
			}
			return
		}
	}
	m.lists[set] = append([]uint64{blk}, l...)
}

// seedStream renders refGen's locality mix in the fuzz encoding, with
// out-of-window noise and zero-size transactions mixed in.
func seedStream(seed uint64, n int) []byte {
	g := newRefGen(seed)
	var out []byte
	for _, r := range g.refs(n) {
		flags := byte(r.Kind)&1 | r.Core&3<<1 | 8
		if g.next()%16 == 0 {
			flags |= 7 << 4
		}
		size := r.Size
		if g.next()%32 == 0 {
			size = 0
		}
		// Fold refGen's 1 MB footprint into 13 bits: 128 lines, so that a
		// stream short enough for the fuzzer to minimize still reuses and
		// evicts in every seed geometry.
		out = append(out, byte(r.Addr), (byte(r.Addr>>8)^byte(r.Addr>>16))&0x1f, size, flags)
	}
	return out
}

// FuzzTrackedStats pins the refinement logic of Engine.record from
// outside it. For any mix of set counts and associativities — including
// coarse families deeper than fine ones and a Fenwick family beside the
// bounded stacks — every Tracked.Stats must equal the production
// cache's, and every handle's Misses a brute-force move-to-front list's
// at the handle's own depth.
func FuzzTrackedStats(f *testing.F) {
	seed := func(hdr [fuzzHeader]byte, stream []byte) { f.Add(append(hdr[:], stream...)) }
	// Figure 4's shape: one associativity (8), four set counts.
	seed([fuzzHeader]byte{3 | 1<<2, 3 << 2, 3 << 2, 3 << 2, 3 << 2}, seedStream(1, 160))
	// A coarse family deeper than a fine one: 2 sets x 8 ways, then 8
	// sets x {1, 2} ways, then 32 sets x 3 ways.
	seed([fuzzHeader]byte{2 | 1<<2 | 1<<4, 3 << 2, 1 | 0<<2 | 1<<4, 2 << 2}, seedStream(2, 160))
	// Fast and deep mixed, three associativities per set count.
	seed([fuzzHeader]byte{1 | 2<<2 | 1<<5, 2 | 0<<2 | 1<<4 | 3<<6, 2 | 1<<2 | 2<<4 | 3<<6}, seedStream(3, 160))
	// The deep family alone with one fast one at the same coarseness
	// (both one set: they merge into one Fenwick family).
	seed([fuzzHeader]byte{0 | 1<<5, 3 << 2}, seedStream(4, 160))
	// An all-store run that keeps re-touching the top of its set (dirty
	// bits through the one-compare path), then loads that evict it.
	var stores []byte
	for i := 0; i < 40; i++ {
		stores = append(stores, byte(i/8*64), 0, 4, 1|8)
	}
	for i := 0; i < 64; i++ {
		stores = append(stores, 0, byte(i), 4, 8)
	}
	seed([fuzzHeader]byte{3, 1 << 2, 1 << 2, 1 << 2, 1 << 2}, stores)
	// A line first touched by a store, evicted, and reused.
	seed([fuzzHeader]byte{1, 0, 1 << 2}, []byte{
		0, 1, 4, 1 | 8, // store A
		0, 2, 4, 8, // load B: same set in both families
		0, 3, 4, 8, // load C
		0, 1, 4, 8, // load A: gap-observed writeback
		0, 2, 0, 1 | 8, // zero-size store B
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		cfgs := fuzzGeometries(data[:fuzzHeader])
		eng, err := New(64)
		if err != nil {
			t.Fatal(err)
		}
		tracked := make([]*Tracked, len(cfgs))
		caches := make([]*cache.Cache, len(cfgs))
		models := map[uint64]*mtf{} // by set count
		for i, cfg := range cfgs {
			if tracked[i], err = eng.Track(cfg); err != nil {
				t.Fatal(err)
			}
			if caches[i], err = cache.New(cfg); err != nil {
				t.Fatal(err)
			}
			sets, assoc := tracked[i].fam.sets, tracked[i].assoc
			m := models[sets]
			if m == nil {
				m = &mtf{setMask: sets - 1, lists: map[uint64][]uint64{}}
				models[sets] = m
			}
			if assoc > len(m.hist) {
				m.hist = make([]uint64, assoc)
			}
		}

		// Stats is checked mid-stream too: its walk of the line table must
		// not outlive the requests recorded after it. Each check reads
		// every handle, so all but the first reuse one walk.
		checkStats := func(when string) {
			for i, tr := range tracked {
				if got, want := tr.Stats(), *caches[i].Stats(); got != want {
					t.Fatalf("%s, %d B/%d-way: analytic stats diverge\n got %+v\nwant %+v",
						when, cfgs[i].Size, cfgs[i].Assoc, got, want)
				}
			}
		}
		var requests uint64
		open := false
		stream := data[fuzzHeader:]
		for b := stream; len(b) >= 4; b = b[4:] {
			if len(b)/4 == len(stream)/8 {
				checkStats("mid-stream")
			}
			r, inWindow := fuzzRef(b)
			if inWindow != open {
				open = inWindow
				kind := fsb.MsgStop
				if open {
					kind = fsb.MsgStart
				}
				eng.OnMsg(fsb.Message{Kind: kind})
			}
			eng.OnRef(r)
			if !inWindow {
				continue
			}
			for _, c := range caches {
				c.Access(r.Addr, r.Size, r.Kind, r.Core)
			}
			size := uint64(r.Size)
			if size == 0 {
				size = 1
			}
			for blk := uint64(r.Addr) >> 6; blk <= (uint64(r.Addr)+size-1)>>6; blk++ {
				requests++
				for _, m := range models {
					m.touch(blk)
				}
			}
		}
		checkStats("end of stream")
		// Each handle at its own depth: a request misses at depth a iff
		// it is not among the list's a most recent blocks of its set.
		for i, tr := range tracked {
			want := requests
			for _, n := range models[tr.fam.sets].hist[:tr.assoc] {
				want -= n
			}
			if got := tr.Misses(); got != want {
				t.Fatalf("%d B/%d-way: Misses %d, move-to-front list %d", cfgs[i].Size, cfgs[i].Assoc, got, want)
			}
		}
	})
}

// TestDistancesShrinkAsSetsSplit checks, request by request, the
// property the refinement order rests on: read off the engine's own
// per-set state just before a request, the block's distance in a finer
// family never exceeds its distance in a coarser one. A bounded stack
// knows a distance only up to its depth, so the comparison is between
// what a fine family proves (its index, or at least its depth) and what
// a coarse one allows (its index, or anything when beyond its stack).
func TestDistancesShrinkAsSetsSplit(t *testing.T) {
	const beyond = int(^uint(0) >> 1)
	for _, seed := range []uint64{3, 17} {
		eng, _ := New(64)
		// Depths neither equal nor monotone along the ladder, and a
		// fully-associative Fenwick family beside them.
		for _, g := range []struct {
			sets  uint64
			assoc int
		}{{64, 2}, {4, 8}, {1, 2 * fastDepth}, {16, 1}, {256, 4}, {2, 3}} {
			cfg := cache.Config{Name: "g", Size: g.sets * uint64(g.assoc) * 64, LineSize: 64, Assoc: g.assoc}
			if _, err := eng.Track(cfg); err != nil {
				t.Fatal(err)
			}
		}
		eng.freeze()
		for i := 1; i < len(eng.famList); i++ {
			a, b := eng.famList[i-1], eng.famList[i]
			if i < eng.nfast && a.sets >= b.sets || !a.fast && b.fast {
				t.Fatalf("famList not in refinement order at %d: %d sets (fast %v) before %d sets (fast %v)",
					i, a.sets, a.fast, b.sets, b.fast)
			}
		}
		// atLeast and atMost bracket a block's distance in f.
		bounds := func(f *setFamily, blk uint64) (atLeast, atMost int) {
			set := blk & f.setMask
			if !f.fast {
				d := beyond
				if a := f.perSet[set]; a != nil {
					a.FinalDepths(func(line uint64, depth int) {
						if line == blk {
							d = depth
						}
					})
				}
				return d, d
			}
			base := int(set) * f.maxAssoc
			for i, key := range f.stack[base : base+f.maxAssoc] {
				if key == blk+1 {
					return i, i
				}
			}
			return f.maxAssoc, beyond
		}
		least := make([]int, len(eng.famList))
		most := make([]int, len(eng.famList))
		// onTop[k] counts requests whose first bounded-stack family,
		// coarse to fine, with the block on top of its set is famList[k]
		// (nfast: none).
		onTop := make([]int, eng.nfast+1)
		for n, r := range newRefGen(seed).refs(10000) {
			blk := uint64(r.Addr) >> 6
			for i, f := range eng.famList {
				least[i], most[i] = bounds(f, blk)
			}
			k := 0
			for k < eng.nfast && most[k] != 0 {
				k++
			}
			onTop[k]++
			for c, coarse := range eng.famList {
				for f, fine := range eng.famList {
					if fine.sets > coarse.sets && least[f] > most[c] {
						t.Fatalf("seed %d, request %d, block %#x: distance >= %d at %d sets but <= %d at %d sets",
							seed, n, blk, least[f], fine.sets, most[c], coarse.sets)
					}
				}
			}
			eng.record(blk, r.Kind == mem.Store, r.Core)
		}
		if onTop[0] == 0 || onTop[eng.nfast] == 0 {
			t.Fatalf("seed %d: stream exercised only one end of the ladder: onTop %v", seed, onTop)
		}
	}
}

// engineLadder is Figure 4's shape at benchmark size: seven 16-way LRU
// caches, each twice the last, so seven set counts at one depth.
func engineLadder() []cache.Config {
	var cfgs []cache.Config
	for size := uint64(16 << 10); size <= 1<<20; size <<= 1 {
		cfgs = append(cfgs, cache.Config{Name: "ladder", Size: size, LineSize: 64, Assoc: 16, Repl: cache.LRU})
	}
	return cfgs
}

var ladderSink uint64

// streamRefs reads 64 MB of lines in order, one load each, with a
// reference into a 256 KB hot region after every line — the shape of a
// CSR sweep (matrix streamed once, vector reused): every streamed line
// is a first touch, so it inserts into the line table.
func streamRefs() []trace.Ref {
	const lines, hot = 1 << 20, 256 << 10
	g := newRefGen(11)
	refs := make([]trace.Ref, 0, 2*lines)
	for i := uint64(0); i < lines; i++ {
		refs = append(refs,
			trace.Ref{Addr: mem.Addr(1<<32 + i*64), Size: 8, Kind: mem.Load, Core: uint8(i % 4)},
			trace.Ref{Addr: mem.Addr(g.next() % hot &^ 7), Size: 8, Kind: mem.Kind(i % 2), Core: uint8(i % 4)})
	}
	return refs
}

// BenchmarkEngineLadder times the analytic pass alone — track, record,
// read Stats — so the layer can be worked on without a run of the
// repository benchmark: "mixed" is refGen's 1 MB footprint, which fits
// in a core's L2, "stream" a footprint that does not.
func BenchmarkEngineLadder(b *testing.B) {
	b.Run("mixed", func(b *testing.B) { benchLadder(b, newRefGen(5).refs(1<<18)) })
	b.Run("stream", func(b *testing.B) { benchLadder(b, streamRefs()) })
}

func benchLadder(b *testing.B, refs []trace.Ref) {
	cfgs := engineLadder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := New(64)
		if err != nil {
			b.Fatal(err)
		}
		tracked := make([]*Tracked, len(cfgs))
		for j, cfg := range cfgs {
			if tracked[j], err = eng.Track(cfg); err != nil {
				b.Fatal(err)
			}
		}
		deliver(refs, eng)
		for _, tr := range tracked {
			ladderSink += tr.Stats().Misses
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(refs)), "ns/ref")
}
