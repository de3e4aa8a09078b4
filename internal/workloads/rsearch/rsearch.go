// Package rsearch implements the paper's RSEARCH workload: searching a
// nucleotide database for homologs of a structured RNA query
// (Section 2.2). RSEARCH proper decodes a stochastic context-free
// grammar with the CYK parsing algorithm; this implementation keeps the
// CYK core — an O(L³)-family dynamic program over substring spans that
// maximizes structure-weighted base pairing (Nussinov-CYK) — and bounds
// total work with a sequence-similarity prefilter, scoring every window
// with a cheap k-mer pass and running the full CYK parse only on the
// best candidates. The substitution is documented in DESIGN.md: the
// memory structure (streaming database scan + private per-thread
// triangular DP matrices) is what the characterization measures.
//
// Memory behaviour (paper findings this reproduces): the database is
// shared and streamed; every thread owns private DP matrices and
// candidate buffers, so the working set grows with thread count
// (Figures 5-6; ~0.5 MB paper-equivalent per thread), and the absolute
// miss rate stays low (Table 2) because the DP tiles are cache-resident.
package rsearch

import (
	"fmt"
	"sort"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// Paper parameters: 100 MB database, query length 100.
const (
	paperDBBytes = 100 << 20
	queryLen     = 48 // scaled query (window) length
	windowStep   = 32 // database scan stride
	kmerLen      = 6  // prefilter k-mer length
	totalParses  = 32 // CYK parses across the whole run (split by thread)
	pairMin      = 4  // minimum hairpin loop length for pairing
)

// Hit is one reported homolog candidate.
type Hit struct {
	Pos   int32
	Score int32
}

// Workload is the RSEARCH instance.
type Workload struct {
	p workloads.Params

	dbLen   int
	threads int
	query   []byte

	// Shared simulated buffers.
	db    mem.Bytes
	qbuf  mem.Bytes
	qpair mem.Int32s // query structure: pairing partner or -1

	// Host-side results.
	perThread [][]Hit
	planted   []int
	// Hits is the merged result list (descending score).
	Hits []Hit
}

// New builds an RSEARCH workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	dbLen := p.ScaleInt(paperDBBytes, 1<<14)
	return &Workload{p: p, dbLen: dbLen}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "RSEARCH" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	return fmt.Sprintf("%s database, search sequence size %d (scaled)",
			workloads.MiB(uint64(w.dbLen)), queryLen),
		workloads.MiB(uint64(w.dbLen))
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.MixedWS }

// Planted returns the positions where homologs were embedded.
func (w *Workload) Planted() []int { return w.planted }

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("rsearch: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	w.query = datasets.Nucleotides(w.p.Seed^0x9a, queryLen)
	dbRaw := datasets.Nucleotides(w.p.Seed, w.dbLen)
	w.planted = datasets.PlantHomologs(w.p.Seed^0x51, dbRaw, w.query, 16)

	shared := sp.NewArena("rsearch/db", uint64(w.dbLen)+queryLen*8+1<<12)
	w.db = shared.Bytes(w.dbLen)
	copy(w.db.Raw(), dbRaw)
	w.qbuf = shared.Bytes(queryLen)
	copy(w.qbuf.Raw(), w.query)
	w.qpair = shared.Int32s(queryLen)
	// Query secondary structure: a deterministic stem-loop — position i
	// pairs with queryLen-1-i for the outer third (a hairpin).
	for i := 0; i < queryLen; i++ {
		w.qpair.Raw()[i] = -1
	}
	for i := 0; i < queryLen/3; i++ {
		j := queryLen - 1 - i
		w.qpair.Raw()[i] = int32(j)
		w.qpair.Raw()[j] = int32(i)
	}

	w.perThread = make([][]Hit, threads)
	barrier := sched.NewBarrier(threads)

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		// Private per-thread DP matrix (triangular, queryLen²/2) and
		// window buffer — the structures that grow the working set with
		// thread count.
		priv := sp.NewArena(fmt.Sprintf("rsearch/dp%d", core),
			uint64(queryLen)*uint64(queryLen)*4+queryLen+uint64(4*totalParses)*8+4*(1<<(2*kmerLen))+1<<12)
		dp := priv.Int32s(queryLen * queryLen)
		window := priv.Bytes(queryLen)
		// The CYK budget is global: each thread parses its share, so
		// the total structural-parse work is thread-count invariant.
		perThread := totalParses / threads
		if perThread < 2 {
			perThread = 2
		}
		candPos := priv.Int32s(perThread)
		candScore := priv.Int32s(perThread)
		// Private query k-mer table, indexed by 2-bit-packed k-mer: the
		// hot per-thread structure the prefilter probes at every
		// database position.
		qk := priv.Int32s(1 << (2 * kmerLen))
		var h uint32
		for i := 0; i < queryLen; i++ {
			h = (h<<2 | uint32(w.qbuf.At(t, i))) & (1<<(2*kmerLen) - 1)
			if i >= kmerLen-1 {
				qk.Set(t, int(h), 1)
			}
		}

		// Phase 1: streaming prefilter over this thread's database
		// shard. Rolling k-mer hash; score = matching k-mers per window.
		shard := (w.dbLen + w.threads - 1) / w.threads
		lo := core * shard
		hi := lo + shard
		if hi > w.dbLen {
			hi = w.dbLen
		}
		nc := 0
		worst := -1
		h = 0
		match := 0
		for pos := lo; pos < hi; pos++ {
			h = (h<<2 | uint32(w.db.At(t, pos))) & (1<<(2*kmerLen) - 1)
			if pos-lo >= kmerLen-1 && qk.At(t, int(h)) != 0 {
				match++
			}
			t.Exec(2)
			if (pos-lo)%windowStep == windowStep-1 && pos-lo >= queryLen {
				w0 := pos - queryLen + 1
				score := int32(match)
				match = match / 2 // decayed carry into next window
				nc, worst = keepCandidate(t, candPos, candScore, nc, &worst, int32(w0), score)
			}
		}

		// Phase 2: full CYK parse of the surviving candidates.
		var hits []Hit
		for c := 0; c < nc; c++ {
			p0 := int(candPos.At(t, c))
			for i := 0; i < queryLen; i++ {
				b := w.db.At(t, p0+i)
				window.Set(t, i, b)
			}
			score := w.cyk(t, dp, window)
			hits = append(hits, Hit{Pos: int32(p0), Score: score})
		}
		sort.Slice(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
		w.perThread[core] = hits
		barrier.Wait(t)
		if core == 0 {
			w.Hits = w.Hits[:0]
			for _, part := range w.perThread {
				w.Hits = append(w.Hits, part...)
			}
			sort.Slice(w.Hits, func(a, b int) bool { return w.Hits[a].Score > w.Hits[b].Score })
		}
	}), nil
}

// keepCandidate maintains the top-N candidate arrays (traced stores).
func keepCandidate(t *softsdv.Thread, pos, score mem.Int32s, n int, worst *int, p, s int32) (int, int) {
	if n < pos.Len() {
		pos.Set(t, n, p)
		score.Set(t, n, s)
		return n + 1, -1
	}
	// Find/replace the worst (lazy cache of its index).
	wi := *worst
	if wi < 0 {
		wi = 0
		ws := score.At(t, 0)
		for k := 1; k < n; k++ {
			if v := score.At(t, k); v < ws {
				ws, wi = v, k
			}
		}
	}
	if s > score.At(t, wi) {
		pos.Set(t, wi, p)
		score.Set(t, wi, s)
		return n, -1
	}
	return n, wi
}

// cyk runs the structure-weighted Nussinov-CYK parse on the window:
// dp[i][j] = best weighted pairing score of window[i..j], with pairs
// that mirror the query's annotated structure earning a bonus.
func (w *Workload) cyk(t *softsdv.Thread, dp mem.Int32s, win mem.Bytes) int32 {
	L := queryLen
	idx := func(i, j int) int { return i*L + j }
	for span := 0; span < pairMin; span++ {
		for i := 0; i+span < L; i++ {
			dp.Set(t, idx(i, i+span), 0)
		}
	}
	for span := pairMin; span < L; span++ {
		for i := 0; i+span < L; i++ {
			j := i + span
			// Case 1: j unpaired.
			best := dp.At(t, idx(i, j-1))
			// Case 2: j pairs with k in [i, j-pairMin].
			bj := win.At(t, j)
			for k := i; k <= j-pairMin; k++ {
				bk := win.At(t, k)
				if !canPair(bk, bj) {
					t.Exec(1)
					continue
				}
				var left int32
				if k > i {
					left = dp.At(t, idx(i, k-1))
				}
				inner := dp.At(t, idx(k+1, j-1))
				bonus := int32(1)
				if w.qpair.At(t, k) == int32(j) {
					bonus = 3 // pair matches the query structure
				}
				if v := left + inner + bonus; v > best {
					best = v
				}
				t.Exec(3)
			}
			dp.Set(t, idx(i, j), best)
		}
	}
	return dp.At(t, idx(0, L-1))
}

// canPair reports Watson-Crick/wobble pairing of two bases (0..3 =
// A,C,G,U).
func canPair(a, b byte) bool {
	switch {
	case a == 0 && b == 3, a == 3 && b == 0: // A-U
		return true
	case a == 1 && b == 2, a == 2 && b == 1: // C-G
		return true
	case a == 2 && b == 3, a == 3 && b == 2: // G-U wobble
		return true
	}
	return false
}
