// Package snp implements the paper's SNP workload: learning the
// structure of a Bayesian network from single-nucleotide-polymorphism
// haplotype data by hill climbing (Section 2.1). The search starts from
// an empty structure and repeatedly moves to the highest-scoring
// neighbor (single-edge addition under a topological ordering, which
// keeps the graph acyclic) until a local maximum.
//
// The computation has two memory phases, which produce the two
// working-set knees the paper reports (16 MB and 128 MB
// paper-equivalent):
//
//  1. Sufficient statistics: pairwise joint counts for all site pairs,
//     computed with bit-parallel popcounts over packed columns, written
//     into an S×S mutual-information matrix — the large working set.
//  2. Hill climbing: candidate edges screened through the MI matrix and
//     exact BIC deltas re-scored by scanning unpacked data columns — the
//     smaller, hot working set.
//
// All threads share the data matrix and the MI matrix, so cache
// performance is invariant with thread count (sharing category (a)).
package snp

import (
	"fmt"
	"math"
	"math/bits"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// Paper-equivalent footprints: the MI matrix is the 128 MB structure,
// the haplotype matrix the 16 MB one.
const (
	paperMIBytes   = 128 << 20
	paperDataBytes = 16 << 20
	maxParents     = 2
	climbEdges     = 5 // hill-climbing iterations (edges added)
)

// Workload is the SNP instance.
type Workload struct {
	p workloads.Params

	sites int // S: variables of the network
	seqs  int // N: observations

	data *datasets.SNPMatrix

	// Simulated buffers.
	cols   mem.Bytes  // unpacked data, column-major: cols[s*N+n]
	packed mem.Int64s // packed columns: packed[s*wpc+w]
	wpc    int
	mi     mem.Float64s // S×S mutual information
	shortl mem.Int32s   // per-node best candidate parent
	bestSc mem.Float64s // per-thread best delta (reduction)
	bestIJ mem.Int32s   // per-thread best edge (2 slots each)

	threads int

	// Edges holds the learned structure (parent -> child), for tests.
	Edges [][2]int32
	// Score is the accumulated structure score.
	Score float64
}

// New builds an SNP workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	// MI matrix: S*S*8 = paperMIBytes * Scale  =>  S = sqrt(target/8).
	target := float64(paperMIBytes) * p.Scale
	s := int(math.Sqrt(target / 8))
	if s < 64 {
		s = 64
	}
	// Data matrix: S*N = paperDataBytes * Scale  =>  N = target2/S.
	n := int(float64(paperDataBytes) * p.Scale / float64(s))
	if n < 128 {
		n = 128
	}
	return &Workload{p: p, sites: s, seqs: n}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "SNP" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	return fmt.Sprintf("%d sequences, %d sites (scaled)", w.seqs, w.sites),
		workloads.MiB(uint64(w.seqs) * uint64(w.sites))
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.SharedWS }

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("snp: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	S, N := w.sites, w.seqs
	w.data = datasets.GenSNP(w.p.Seed, N, S, 8)
	w.wpc = (N + 63) / 64

	dataArena := sp.NewArena("snp/data", uint64(S)*uint64(N)+uint64(S)*uint64(w.wpc)*8+1<<16)
	w.cols = dataArena.Bytes(S * N)
	w.packed = dataArena.Int64s(S * w.wpc)
	// Column-major copy + packing (dataset loading, untraced).
	for s := 0; s < S; s++ {
		col := w.cols.Raw()[s*N : (s+1)*N]
		for n := 0; n < N; n++ {
			a := byte(w.data.Alleles[n*S+s])
			col[n] = a
			if a == 1 {
				w.packed.Raw()[s*w.wpc+n/64] |= 1 << (n % 64)
			}
		}
	}

	miArena := sp.NewArena("snp/mi", uint64(S)*uint64(S)*8+uint64(S)*4+uint64(threads)*32+1<<12)
	w.mi = miArena.Float64s(S * S)
	w.shortl = miArena.Int32s(S)
	w.bestSc = miArena.Float64s(threads)
	w.bestIJ = miArena.Int32s(threads * 2)

	barrier := sched.NewBarrier(threads)
	parents := make([][]int32, S) // host-side structure bookkeeping

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		// Phase 1: pairwise sufficient statistics -> MI matrix.
		// Pairs (i,j), i<j, striped across threads by i.
		for i := core; i < S; i += w.threads {
			for j := i + 1; j < S; j++ {
				m := w.pairMI(t, i, j)
				w.mi.Set(t, i*S+j, m)
				w.mi.Set(t, j*S+i, m)
			}
		}
		barrier.Wait(t)

		// Phase 2: screening — per-node best candidate parent by MI.
		for j := core; j < S; j += w.threads {
			best, bestMI := int32(-1), -1.0
			for i := 0; i < j; i++ {
				v := w.mi.At(t, j*S+i)
				t.Exec(1)
				if v > bestMI {
					bestMI, best = v, int32(i)
				}
			}
			w.shortl.Set(t, j, best)
		}
		barrier.Wait(t)

		// Phase 3: hill climbing — each iteration exactly re-scores the
		// shortlisted candidate of every node against the data columns,
		// takes the best single-edge addition, applies it, and rescreens
		// the winner's node.
		for it := 0; it < climbEdges; it++ {
			var localBest float64 = -math.MaxFloat64
			var localI, localJ int32 = -1, -1
			for j := core; j < S; j += w.threads {
				if len(parents[j]) >= maxParents {
					continue
				}
				cand := w.shortl.At(t, j)
				if cand < 0 || hasParent(parents[j], cand) {
					continue
				}
				delta := w.bicDelta(t, int(cand), j, parents[j])
				if delta > localBest {
					localBest, localI, localJ = delta, cand, int32(j)
				}
			}
			w.bestSc.Set(t, core, localBest)
			w.bestIJ.Set(t, core*2, localI)
			w.bestIJ.Set(t, core*2+1, localJ)
			barrier.Wait(t)

			if core == 0 {
				// Reduce and apply the winning edge.
				winner := 0
				winBest := w.bestSc.At(t, 0)
				for k := 1; k < w.threads; k++ {
					if v := w.bestSc.At(t, k); v > winBest {
						winBest, winner = v, k
					}
				}
				i := w.bestIJ.At(t, winner*2)
				j := w.bestIJ.At(t, winner*2+1)
				if i >= 0 && winBest > 0 {
					parents[j] = append(parents[j], i)
					w.Edges = append(w.Edges, [2]int32{i, j})
					w.Score += winBest
					// Rescreen node j: next-best unused candidate.
					best, bestMI := int32(-1), -1.0
					for c := 0; c < int(j); c++ {
						if hasParent(parents[j], int32(c)) {
							continue
						}
						v := w.mi.At(t, int(j)*S+c)
						if v > bestMI {
							bestMI, best = v, int32(c)
						}
					}
					w.shortl.Set(t, int(j), best)
				}
			}
			barrier.Wait(t)
		}
	}), nil
}

// hasParent reports membership (host bookkeeping).
func hasParent(ps []int32, c int32) bool {
	for _, p := range ps {
		if p == c {
			return true
		}
	}
	return false
}

// pairMI computes the mutual information of sites i and j from packed
// columns via popcounts (traced word loads).
func (w *Workload) pairMI(t *softsdv.Thread, i, j int) float64 {
	N := w.seqs
	var n11, n1x, nx1 int
	for wd := 0; wd < w.wpc; wd++ {
		a := uint64(w.packed.At(t, i*w.wpc+wd))
		b := uint64(w.packed.At(t, j*w.wpc+wd))
		n11 += bits.OnesCount64(a & b)
		n1x += bits.OnesCount64(a)
		nx1 += bits.OnesCount64(b)
		t.Exec(4)
	}
	return miFromCounts(N, n1x, nx1, n11)
}

// miFromCounts computes MI of two binary variables from joint counts.
func miFromCounts(n, a, b, ab int) float64 {
	if n == 0 {
		return 0
	}
	fn := float64(n)
	p := [2][2]float64{}
	p[1][1] = float64(ab) / fn
	p[1][0] = float64(a-ab) / fn
	p[0][1] = float64(b-ab) / fn
	p[0][0] = 1 - p[1][1] - p[1][0] - p[0][1]
	pa := [2]float64{1 - float64(a)/fn, float64(a) / fn}
	pb := [2]float64{1 - float64(b)/fn, float64(b) / fn}
	var mi float64
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if p[x][y] > 0 && pa[x] > 0 && pb[y] > 0 {
				mi += p[x][y] * math.Log(p[x][y]/(pa[x]*pb[y]))
			}
		}
	}
	return mi
}

// bicDelta computes the exact BIC improvement of adding parent i to node
// j given its existing parents, by scanning the unpacked data columns.
// Parent configurations are enumerated over at most maxParents+1 binary
// parents.
func (w *Workload) bicDelta(t *softsdv.Thread, i, j int, ps []int32) float64 {
	N := w.seqs
	newPs := make([]int, 0, maxParents+1)
	for _, p := range ps {
		newPs = append(newPs, int(p))
	}
	withI := append(append([]int(nil), newPs...), i)

	llOld := w.logLik(t, j, newPs)
	llNew := w.logLik(t, j, withI)
	// BIC penalty: extra free parameters = 2^|ps| (doubling configs).
	penalty := 0.5 * math.Log(float64(N)) * float64(int(1)<<len(newPs))
	return (llNew - llOld) - penalty
}

// logLik computes the log-likelihood of node j's column given parent
// columns, scanning rows (traced).
func (w *Workload) logLik(t *softsdv.Thread, j int, ps []int) float64 {
	N := w.seqs
	nCfg := 1 << len(ps)
	counts := make([]int, nCfg*2)
	for n := 0; n < N; n++ {
		cfg := 0
		for k, p := range ps {
			if w.cols.At(t, p*N+n) != 0 {
				cfg |= 1 << k
			}
		}
		v := w.cols.At(t, j*N+n)
		counts[cfg*2+int(v)]++
		t.Exec(2)
	}
	var ll float64
	for c := 0; c < nCfg; c++ {
		n0, n1 := counts[c*2], counts[c*2+1]
		tot := n0 + n1
		if tot == 0 {
			continue
		}
		if n0 > 0 {
			ll += float64(n0) * math.Log(float64(n0)/float64(tot))
		}
		if n1 > 0 {
			ll += float64(n1) * math.Log(float64(n1)/float64(tot))
		}
	}
	return ll
}
