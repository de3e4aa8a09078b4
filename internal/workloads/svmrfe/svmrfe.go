// Package svmrfe implements the paper's SVM-RFE workload: a linear
// support-vector machine trained by dual coordinate descent, wrapped in
// Recursive Feature Elimination — after each training round the genes
// with the smallest squared weights are discarded and the model is
// retrained on the survivors (Section 2.2). This is the gene-selection
// method used in disease finding on micro-array data.
//
// Memory behaviour (paper findings this reproduces): training streams
// the expression matrix row by row with the data-blocking optimization
// the paper's footnote mentions — samples are processed in cache-sized
// blocks with several inner sweeps per block, so the measured working
// set is the block, not the full matrix. The parallel decomposition is
// a cascade: threads train on disjoint sample shards of the one shared
// matrix and average their weight vectors each epoch, so the shared
// matrix dominates the footprint and cache behaviour is invariant with
// thread count (category (a)); the full-row unit-stride sweeps make the
// workload prefetch- and large-line-friendly.
package svmrfe

import (
	"fmt"
	"math"
	"sort"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// Paper-equivalent sizes: 253 tissue samples with 15k genes (30 MB
// matrix); the blocked working set is 4 MB.
const (
	paperSamples = 253
	paperGenes   = 15000
	// paperBlockWS is the blocked training working set. The paper's
	// footnote attributes SVM-RFE's small working set to data-blocking
	// optimizations; its Table 2 DL2 miss rate (2.96/1k on a 512 KB L2)
	// implies the block was sized to the L2, so we block at 512 KB
	// paper-equivalent. The Figure 4 curve is flat from the smallest
	// measured cache (4 MB) either way, as in the paper.
	paperBlockWS   = 512 << 10
	rfeSteps       = 3   // elimination rounds
	rfeKeep        = 0.5 // fraction of genes kept per round
	innerSweeps    = 6   // sweeps per sample block (the blocking knob)
	outerEpochs    = 4   // full passes per training round
	regularization = 1.0 // SVM C parameter
)

// Workload is the SVM-RFE instance.
type Workload struct {
	p workloads.Params

	samples int
	genes   int
	block   int // samples per training block

	data *datasets.Microarray

	// Simulated buffers: ping-pong matrices for RFE compaction.
	x       [2]mem.Float64s // row-major samples × activeGenes
	y       mem.Float64s
	w       mem.Float64s   // consensus weight vector (active genes)
	wLocal  []mem.Float64s // per-thread cascade weight vectors
	alpha   mem.Float64s
	geneIDs [2]mem.Int32s // active gene ids (for final ranking)

	threads int

	// Ranking is the final surviving gene list, most recently trained
	// model first; for validation against the planted informative set.
	Ranking []int32
}

// New builds an SVM-RFE workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	// Matrix bytes = samples*genes*8 scaled from 30 MB.
	genes := int(float64(paperGenes) * p.Scale)
	if genes < 128 {
		genes = 128
	}
	samples := paperSamples
	// Block: rows per block so that block*genes*8 ≈ paperBlockWS*Scale.
	rowBytes := genes * 8
	block := int(float64(paperBlockWS) * p.Scale / float64(rowBytes))
	if block < 8 {
		block = 8
	}
	if block > samples {
		block = samples
	}
	return &Workload{p: p, samples: samples, genes: genes, block: block}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "SVM-RFE" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	return fmt.Sprintf("%d tissue samples, each with %d genes (scaled)", w.samples, w.genes),
		workloads.MiB(uint64(w.samples) * uint64(w.genes) * 8)
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.SharedWS }

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("svmrfe: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	w.data = datasets.GenMicroarray(w.p.Seed, w.samples, w.genes, 0.05)

	matBytes := uint64(w.samples) * uint64(w.genes) * 8
	arena := sp.NewArena("svmrfe/matrix", 2*matBytes+2*uint64(w.genes)*4+1<<16)
	for k := 0; k < 2; k++ {
		w.x[k] = arena.Float64s(w.samples * w.genes)
		w.geneIDs[k] = arena.Int32s(w.genes)
	}
	copy(w.x[0].Raw(), w.data.X)
	for g := 0; g < w.genes; g++ {
		w.geneIDs[0].Raw()[g] = int32(g)
	}
	vec := sp.NewArena("svmrfe/vectors",
		uint64(w.genes)*8*uint64(threads+1)+uint64(w.samples)*16+1<<12)
	w.w = vec.Float64s(w.genes)
	w.y = vec.Float64s(w.samples)
	copy(w.y.Raw(), w.data.Y)
	w.alpha = vec.Float64s(w.samples)
	w.wLocal = make([]mem.Float64s, threads)
	for k := 0; k < threads; k++ {
		w.wLocal[k] = vec.Float64s(w.genes)
	}

	barrier := sched.NewBarrier(threads)

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		active := w.genes
		cur := 0
		for step := 0; ; step++ {
			w.train(t, core, cur, active, barrier)
			if step == rfeSteps {
				break
			}
			active = w.eliminate(t, core, cur, active, barrier)
			cur = 1 - cur
		}
		if core == 0 {
			w.Ranking = append([]int32(nil), w.geneIDs[cur].Raw()[:active]...)
		}
		barrier.Wait(t)
	}), nil
}

// train runs the cascade: each thread performs blocked dual coordinate
// descent on its own sample shard against its local weight vector, and
// the shard models are averaged into the consensus vector after every
// epoch (threads partition the gene dimension for the reduction).
func (w *Workload) train(t *softsdv.Thread, core, cur, active int, barrier *softsdv.Barrier) {
	x := w.x[cur]
	wl := w.wLocal[core]

	// Sample shard of this thread.
	sLo := core * w.samples / w.threads
	sHi := (core + 1) * w.samples / w.threads
	// Gene slice of this thread (for consensus averaging).
	gLo := core * active / w.threads
	gHi := (core + 1) * active / w.threads

	// Reset shard model.
	for i := sLo; i < sHi; i++ {
		w.alpha.Set(t, i, 0)
	}
	for g := 0; g < active; g++ {
		wl.Set(t, g, 0)
	}
	barrier.Wait(t)

	// Shrinking (the "data blocking optimizations" of the paper's
	// footnote, as implemented by liblinear-style solvers): rows whose
	// dual variable is stuck at a bound are dropped from later sweeps,
	// so after the first epoch only the support-vector rows stream —
	// this is what keeps the measured working set far below the matrix.
	rowActive := make([]bool, sHi-sLo)
	for i := range rowActive {
		rowActive[i] = true
	}
	// Diagonal of the Gram matrix (row norms), accumulated during the
	// first sweep's row reads — the proper DCD step size divisor.
	qii := make([]float64, sHi-sLo)

	for epoch := 0; epoch < outerEpochs; epoch++ {
		// Un-shrink at epoch start: the consensus model changed, so
		// previously bounded rows may move again (periodic shrinking
		// reset, as production solvers do).
		for i := range rowActive {
			rowActive[i] = true
		}
		for b0 := sLo; b0 < sHi; b0 += w.block {
			b1 := b0 + w.block
			if b1 > sHi {
				b1 = sHi
			}
			for sweep := 0; sweep < innerSweeps; sweep++ {
				for i := b0; i < b1; i++ {
					if !rowActive[i-sLo] {
						continue
					}
					row := i * w.genes
					// Full-row dot product against the local model.
					var dot float64
					if epoch == 0 && sweep == 0 {
						var q float64
						for g := 0; g < active; g++ {
							xv := x.At(t, row+g)
							dot += xv * wl.At(t, g)
							q += xv * xv
							t.Exec(3)
						}
						qii[i-sLo] = q
					} else {
						for g := 0; g < active; g++ {
							dot += x.At(t, row+g) * wl.At(t, g)
							t.Exec(2)
						}
					}
					yi := w.y.At(t, i)
					// Dual coordinate descent step for L1-loss SVM.
					grad := yi*dot - 1
					a := w.alpha.At(t, i)
					q := qii[i-sLo]
					if q == 0 {
						q = 1
					}
					na := a - grad/q
					if na < 0 {
						na = 0
					} else if na > regularization {
						na = regularization
					}
					dy := (na - a) * yi
					w.alpha.Set(t, i, na)
					t.Exec(8)
					if dy != 0 {
						for g := 0; g < active; g++ {
							wl.Set(t, g, wl.At(t, g)+dy*x.At(t, row+g))
							t.Exec(2)
						}
					} else if na == 0 || na == regularization {
						// Bounded and not moving: shrink the row out.
						rowActive[i-sLo] = false
					}
				}
			}
		}
		// Consensus: average the shard models, gene-sliced per thread.
		barrier.Wait(t)
		inv := 1 / float64(w.threads)
		for g := gLo; g < gHi; g++ {
			var sum float64
			for k := 0; k < w.threads; k++ {
				sum += w.wLocal[k].At(t, g)
				t.Exec(1)
			}
			w.w.Set(t, g, sum*inv)
		}
		barrier.Wait(t)
		// Shards restart each epoch from the consensus model.
		for g := 0; g < active; g++ {
			wl.Set(t, g, w.w.At(t, g))
		}
		barrier.Wait(t)
	}
}

// eliminate drops the lowest-|w| half of the active genes, compacting
// the matrix into the other ping-pong buffer in parallel (threads
// partition the sample rows). Returns the new active count.
func (w *Workload) eliminate(t *softsdv.Thread, core, cur, active int, barrier *softsdv.Barrier) int {
	next := 1 - cur
	keep := int(float64(active) * rfeKeep)
	if keep < 8 {
		keep = 8
	}

	// Core 0 ranks genes by squared weight (reads traced, sort is host
	// bookkeeping) and publishes the keep list through geneIDs[next].
	if core == 0 {
		type gw struct {
			g  int32
			w2 float64
		}
		ranked := make([]gw, active)
		for g := 0; g < active; g++ {
			v := w.w.At(t, g)
			ranked[g] = gw{int32(g), v * v}
			t.Exec(1)
		}
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].w2 > ranked[b].w2 })
		kept := ranked[:keep]
		sort.Slice(kept, func(a, b int) bool { return kept[a].g < kept[b].g })
		for k, r := range kept {
			// Map through the current id table to global gene ids.
			gid := w.geneIDs[cur].At(t, int(r.g))
			w.geneIDs[next].Set(t, k, gid)
			// Stash the source column index in the upper table half so
			// compaction threads can read it (host slice keeps it too).
			w.geneIDs[next].Raw()[w.genes-keep+k] = r.g
		}
	}
	barrier.Wait(t)

	srcCols := w.geneIDs[next].Raw()[w.genes-keep : w.genes]
	rlo := core * w.samples / w.threads
	rhi := (core + 1) * w.samples / w.threads
	for i := rlo; i < rhi; i++ {
		src := i * w.genes
		dst := i * w.genes
		for k := 0; k < keep; k++ {
			v := w.x[cur].At(t, src+int(srcCols[k]))
			w.x[next].Set(t, dst+k, v)
			t.Exec(1)
		}
	}
	barrier.Wait(t)
	return keep
}

// ReferenceAccuracy trains natively (untraced) with the same algorithm
// and returns the fraction of planted informative genes surviving RFE —
// used by tests to validate the learner.
func (w *Workload) ReferenceAccuracy() float64 {
	data := datasets.GenMicroarray(w.p.Seed, w.samples, w.genes, 0.05)
	x := append([]float64(nil), data.X...)
	ids := make([]int32, w.genes)
	for i := range ids {
		ids[i] = int32(i)
	}
	active := w.genes
	wv := make([]float64, w.genes)
	alpha := make([]float64, w.samples)
	for step := 0; ; step++ {
		for i := range alpha {
			alpha[i] = 0
		}
		for g := 0; g < active; g++ {
			wv[g] = 0
		}
		for epoch := 0; epoch < outerEpochs*innerSweeps; epoch++ {
			for i := 0; i < w.samples; i++ {
				row := i * w.genes
				var dot, q float64
				for g := 0; g < active; g++ {
					dot += x[row+g] * wv[g]
					q += x[row+g] * x[row+g]
				}
				if q == 0 {
					q = 1
				}
				yi := data.Y[i]
				grad := yi*dot - 1
				na := alpha[i] - grad/q
				if na < 0 {
					na = 0
				} else if na > regularization {
					na = regularization
				}
				d := (na - alpha[i]) * yi
				alpha[i] = na
				if d != 0 {
					for g := 0; g < active; g++ {
						wv[g] += d * x[row+g]
					}
				}
			}
		}
		if step == rfeSteps {
			break
		}
		keep := int(float64(active) * rfeKeep)
		if keep < 8 {
			keep = 8
		}
		idx := make([]int, active)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return math.Abs(wv[idx[a]]) > math.Abs(wv[idx[b]])
		})
		srcs := append([]int(nil), idx[:keep]...)
		sort.Ints(srcs)
		newIDs := make([]int32, keep)
		for k, s := range srcs {
			newIDs[k] = ids[s]
		}
		for i := 0; i < w.samples; i++ {
			row := i * w.genes
			for k, s := range srcs {
				x[row+k] = x[row+s]
			}
			_ = row
		}
		copy(ids, newIDs)
		active = keep
	}
	inf := make(map[int32]bool, len(data.Informative))
	for _, g := range data.Informative {
		inf[int32(g)] = true
	}
	hits := 0
	for _, g := range ids[:active] {
		if inf[g] {
			hits++
		}
	}
	// Fraction of survivors that are informative.
	return float64(hits) / float64(active)
}
