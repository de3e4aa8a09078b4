// Package plsa implements the paper's PLSA workload: Smith-Waterman
// local sequence alignment (linear gap penalty, linear-space rows), the
// optimization workload of Section 2.4. The parallelization follows the
// pipelined-wavefront scheme of the PLSA algorithm (Li et al.,
// Euro-Par'05): the score matrix is partitioned into column blocks, one
// per thread; in round k, thread t computes row k-t of its block, so all
// dependencies (vertical, diagonal, and the horizontal dependency
// crossing the block boundary) come from earlier rounds. Threads
// exchange block-boundary cells through a small shared ring and meet at
// a barrier every round.
//
// Memory behaviour (paper findings this reproduces): the working set is
// two row buffers shared by all threads — small (4 MB paper-equivalent)
// and invariant with thread count; the access pattern is a perfect
// unit-stride stream, giving PLSA the lowest L2 miss rate, the highest
// memory-instruction share (83%), and strong prefetcher affinity.
package plsa

import (
	"fmt"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// The paper's sequences are 30k long, giving ~0.25 MB of DP rows — the
// structure behind PLSA's near-zero DL2 miss rate in Table 2 (the rows
// fit the profiling machine's 512 KB L2) and its from-the-first-point-
// flat curve in Figure 4 (the paper reports the working set as "4 MB",
// the smallest cache it measured).
const (
	paperWorkingSet = 256 << 10
	paperRows       = 300 // rows of the scaled score matrix (query prefix)
)

// Match/mismatch/gap scoring (standard nucleotide defaults).
const (
	scoreMatch    = 2
	scoreMismatch = -1
	scoreGap      = 1
)

// Workload is the PLSA instance.
type Workload struct {
	p workloads.Params
	n int // columns (length of sequence a)
	m int // rows processed (prefix of sequence b)

	a, b []byte // untraced dataset copies

	// Simulated buffers, allocated in Build.
	seqA    mem.Bytes
	seqB    mem.Bytes
	rows    []mem.Int32s // one (prev,cur) pair per thread block? no: shared two rows
	bounds  mem.Int32s   // boundary ring [threads][ringSize]
	best    mem.Int32s   // per-thread best score
	threads int

	// Best is the final alignment score, for validation.
	Best int32
}

// ringSize is the boundary ring depth (see package comment).
const ringSize = 4

// New builds a PLSA workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	// Row footprint: two int32 rows of n columns ≈ WS target.
	target := int(float64(paperWorkingSet) * p.Scale)
	n := target / (2 * 4)
	if n < 512 {
		n = 512
	}
	return &Workload{p: p, n: n, m: paperRows}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "PLSA" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	return fmt.Sprintf("two sequences in %dk length (scaled)", w.n/1000),
		workloads.MiB(uint64(w.n + w.m))
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.SharedWS }

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("plsa: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	w.a = datasets.Nucleotides(w.p.Seed, w.n)
	w.b = datasets.Mutate(w.p.Seed^1, w.a[:w.m+w.m/4], 0.2, 0.05)
	if len(w.b) < w.m {
		w.m = len(w.b)
	}

	shared := sp.NewArena("plsa/shared", uint64(w.n)*10+uint64(w.m)+uint64(threads)*64+4096)
	w.seqA = shared.Bytes(w.n)
	copy(w.seqA.Raw(), w.a)
	w.seqB = shared.Bytes(w.m)
	copy(w.seqB.Raw(), w.b[:w.m])
	// Two shared score rows: prev and cur, swapped per round per block.
	prev := shared.Int32s(w.n)
	cur := shared.Int32s(w.n)
	w.rows = []mem.Int32s{prev, cur}
	w.bounds = shared.Int32s(threads * ringSize * 2) // H and diag per slot
	w.best = shared.Int32s(threads)

	barrier := sched.NewBarrier(threads)
	n, m := w.n, w.m
	blk := (n + threads - 1) / threads

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		lo := core * blk
		hi := lo + blk
		if hi > n {
			hi = n
		}
		var localBest int32
		rounds := m + threads - 1
		for k := 0; k < rounds; k++ {
			row := k - core
			if row >= 0 && row < m && lo < hi {
				w.computeRow(t, core, row, lo, hi, &localBest)
			}
			barrier.Wait(t)
		}
		w.best.Set(t, core, localBest)
		barrier.Wait(t)
		if core == 0 {
			best := int32(0)
			for i := 0; i < threads; i++ {
				if v := w.best.At(t, i); v > best {
					best = v
				}
			}
			w.Best = best
		}
	}), nil
}

// computeRow fills columns [lo,hi) of the given row for thread `core`.
// Rows alternate between the two shared row buffers; because thread t is
// always exactly one row behind thread t-1, the parity of `row` selects
// a consistent (prev, cur) pair per thread.
func (w *Workload) computeRow(t *softsdv.Thread, core, row, lo, hi int, localBest *int32) {
	prev := w.rows[(row+1)&1]
	cur := w.rows[row&1]
	bc := w.seqB.At(t, row)

	// Boundary values from the left neighbor (or zero at the matrix
	// edge): hLeft = H[row][lo-1], diag = H[row-1][lo-1].
	var hLeft, diag int32
	if lo > 0 {
		slot := (core-1)*ringSize*2 + (row%ringSize)*2
		hLeft = w.bounds.At(t, slot)
		prevSlot := (core-1)*ringSize*2 + ((row-1+ringSize)%ringSize)*2
		if row > 0 {
			diag = w.bounds.At(t, prevSlot)
		}
	}

	for j := lo; j < hi; j++ {
		var up int32
		if row > 0 {
			up = prev.At(t, j)
		}
		s := int32(scoreMismatch)
		if w.seqA.At(t, j) == bc {
			s = scoreMatch
		}
		h := diag + s
		if v := up - scoreGap; v > h {
			h = v
		}
		if v := hLeft - scoreGap; v > h {
			h = v
		}
		if h < 0 {
			h = 0
		}
		cur.Set(t, j, h)
		diag = up
		hLeft = h
		if h > *localBest {
			*localBest = h
		}
		// One ALU op per cell keeps the memory-instruction share near
		// the paper's 83%.
		if j&1 == 0 {
			t.Exec(1)
		}
	}

	// Publish this row's block-end boundary for the right neighbor.
	if core < w.threads-1 {
		slot := core*ringSize*2 + (row%ringSize)*2
		w.bounds.Set(t, slot, hLeft)
	}
}

// Reference computes the alignment score serially without simulation,
// for validating the parallel kernel.
func (w *Workload) Reference() int32 {
	if w.a == nil {
		w.a = datasets.Nucleotides(w.p.Seed, w.n)
		w.b = datasets.Mutate(w.p.Seed^1, w.a[:w.m+w.m/4], 0.2, 0.05)
		if len(w.b) < w.m {
			w.m = len(w.b)
		}
	}
	prev := make([]int32, w.n)
	cur := make([]int32, w.n)
	var best int32
	for i := 0; i < w.m; i++ {
		var hLeft, diag int32
		bc := w.b[i]
		for j := 0; j < w.n; j++ {
			up := prev[j]
			s := int32(scoreMismatch)
			if w.a[j] == bc {
				s = scoreMatch
			}
			h := diag + s
			if v := up - scoreGap; v > h {
				h = v
			}
			if v := hLeft - scoreGap; v > h {
				h = v
			}
			if h < 0 {
				h = 0
			}
			cur[j] = h
			diag = up
			hLeft = h
			if h > best {
				best = h
			}
		}
		prev, cur = cur, prev
	}
	return best
}
