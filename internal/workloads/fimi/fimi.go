// Package fimi implements the paper's FIMI workload: frequent-itemset
// mining with FP-growth (the FP-Zhu package's three stages — first scan,
// FP-tree construction, and mining; Section 2.3).
//
// Memory behaviour (paper findings this reproduces): all threads share
// the read-only global FP-tree and each mines a disjoint set of frequent
// items, allocating private conditional pattern trees for the recursion.
// The shared tree dominates the footprint, so the working set grows only
// 20-30% per core doubling (Figures 5-6, mixed-sharing category). The
// nodelink and parent-chain walks are pointer chases, which is why FIMI
// gains less from large cache lines than the streaming workloads
// (Figure 7).
package fimi

import (
	"fmt"
	"sort"

	"cmpmem/internal/datasets"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

// Paper parameters: 990k transactions, mini-support 800 (Kosarak).
const (
	paperTransactions = 990_000
	paperSupportFrac  = 800.0 / 990_000
	paperItems        = 41_000
	meanTxLen         = 8
	maxPatternLen     = 4 // recursion depth bound
)

// node field layout within the SoA arrays.
const nodeFields = 6 // item, count, parent, nodelink, child, sibling

// Itemset is one mined frequent itemset.
type Itemset struct {
	Items   []int32 // original item ids, ascending
	Support int32
}

// tree is an FP-tree in SoA form over simulated buffers. Node 0 is the
// root (item -1).
type tree struct {
	nodes    mem.Int32s // nodeFields int32 per node
	cap      int
	next     int
	headLink mem.Int32s // per item-rank: head of nodelink chain, -1 none
	headCnt  mem.Int32s // per item-rank: total support
	nitems   int
}

// Workload is the FIMI instance.
type Workload struct {
	p workloads.Params

	ntx     int
	nitems  int
	minsup  int32
	db      *datasets.Transactions
	threads int

	// Shared simulated structures.
	items   mem.Int32s // transaction items
	offsets mem.Int32s
	counts  mem.Int32s // first-scan item counts
	rank    mem.Int32s // item -> frequency rank (-1 infrequent)
	rankItm mem.Int32s // rank -> item
	global  *tree

	// Result (host side, merged by core 0).
	perThread [][]Itemset
	Frequent  []Itemset
}

// New builds a FIMI workload description.
func New(p workloads.Params) *Workload {
	p = p.WithDefaults()
	// Transaction count scales with the dataset; /4 keeps the simulated
	// instruction volume of the mining stage in the harness budget
	// while preserving the tree-vs-private footprint ratio.
	ntx := p.ScaleInt(paperTransactions/4, 2000)
	nitems := p.ScaleInt(paperItems, 512)
	minsup := int32(float64(ntx) * paperSupportFrac * 4)
	if minsup < 2 {
		minsup = 2
	}
	return &Workload{p: p, ntx: ntx, nitems: nitems, minsup: minsup}
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "FIMI" }

// Table1 implements workloads.Workload.
func (w *Workload) Table1() (string, string) {
	return fmt.Sprintf("%dk transactions and mini-support=%d (scaled)", w.ntx/1000, w.minsup),
		workloads.MiB(uint64(w.ntx) * meanTxLen * 4)
}

// Category implements workloads.Workload.
func (w *Workload) Category() workloads.SharingCategory { return workloads.MixedWS }

// MinSupport returns the scaled absolute support threshold.
func (w *Workload) MinSupport() int32 { return w.minsup }

// DB returns the generated transaction database (after Build).
func (w *Workload) DB() *datasets.Transactions { return w.db }

// newTree allocates a tree in the arena with the given capacity.
func newTree(a *mem.Arena, capNodes, nitems int) *tree {
	tr := &tree{
		nodes:    a.Int32s(capNodes * nodeFields),
		cap:      capNodes,
		headLink: a.Int32s(nitems),
		headCnt:  a.Int32s(nitems),
		nitems:   nitems,
	}
	tr.reset(nil, nitems)
	return tr
}

// reset re-initializes the tree for nitems item ranks. Host-side
// initialization (rec==nil) is used at build time; traced resets pass
// the thread recorder.
func (tr *tree) reset(t *softsdv.Thread, nitems int) {
	tr.nitems = nitems
	tr.next = 1
	if t == nil {
		raw := tr.nodes.Raw()
		for f := 0; f < nodeFields; f++ {
			raw[f] = -1
		}
		hl, hc := tr.headLink.Raw(), tr.headCnt.Raw()
		for i := 0; i < nitems; i++ {
			hl[i] = -1
			hc[i] = 0
		}
		return
	}
	for f := 0; f < nodeFields; f++ {
		tr.nodes.Set(t, f, -1)
	}
	for i := 0; i < nitems; i++ {
		tr.headLink.Set(t, i, -1)
		tr.headCnt.Set(t, i, 0)
	}
}

// field accessors (traced).
func (tr *tree) get(t *softsdv.Thread, n int, f int) int32 {
	return tr.nodes.At(t, n*nodeFields+f)
}
func (tr *tree) set(t *softsdv.Thread, n int, f int, v int32) {
	tr.nodes.Set(t, n*nodeFields+f, v)
}

const (
	fItem = iota
	fCount
	fParent
	fNodelink
	fChild
	fSibling
)

// insert adds a path of item ranks with the given support to the tree.
func (tr *tree) insert(t *softsdv.Thread, ranks []int32, support int32) {
	cur := 0
	for _, r := range ranks {
		// Search cur's children for rank r.
		child := tr.get(t, cur, fChild)
		found := -1
		for child != -1 {
			if tr.get(t, int(child), fItem) == r {
				found = int(child)
				break
			}
			child = tr.get(t, int(child), fSibling)
			t.Exec(3) // compare + index arithmetic + branch
		}
		if found >= 0 {
			tr.set(t, found, fCount, tr.get(t, found, fCount)+support)
			cur = found
			continue
		}
		if tr.next >= tr.cap {
			// Tree full: drop the rest of the path. Capacities are
			// sized so this only triggers under adversarial tests.
			return
		}
		n := tr.next
		tr.next++
		tr.set(t, n, fItem, r)
		tr.set(t, n, fCount, support)
		tr.set(t, n, fParent, int32(cur))
		tr.set(t, n, fChild, -1)
		tr.set(t, n, fSibling, tr.get(t, cur, fChild))
		tr.set(t, cur, fChild, int32(n))
		tr.set(t, n, fNodelink, tr.headLink.At(t, int(r)))
		tr.headLink.Set(t, int(r), int32(n))
		cur = n
	}
}

// Build implements workloads.Workload.
func (w *Workload) Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error) {
	if threads < 1 {
		return nil, fmt.Errorf("fimi: threads must be >= 1, got %d", threads)
	}
	w.threads = threads
	w.db = datasets.GenTransactions(w.p.Seed, w.ntx, w.nitems, meanTxLen)

	dbArena := sp.NewArena("fimi/db", uint64(len(w.db.Items))*4+uint64(len(w.db.Offsets))*4+1<<12)
	w.items = dbArena.Int32s(len(w.db.Items))
	copy(w.items.Raw(), w.db.Items)
	w.offsets = dbArena.Int32s(len(w.db.Offsets))
	copy(w.offsets.Raw(), w.db.Offsets)

	// Five nitems-sized int32 arrays: counts, rank, rankItm, and the
	// tree's headLink and headCnt.
	treeCap := len(w.db.Items) + 1
	shared := sp.NewArena("fimi/tree",
		uint64(treeCap)*nodeFields*4+uint64(w.nitems)*20+1<<16)
	w.counts = shared.Int32s(w.nitems)
	w.rank = shared.Int32s(w.nitems)
	w.global = newTree(shared, treeCap, w.nitems)
	w.rankItm = shared.Int32s(w.nitems)

	w.perThread = make([][]Itemset, threads)
	barrier := sched.NewBarrier(threads)

	return softsdv.ProgramFunc(func(t *softsdv.Thread, core int) {
		// Stage 1: first scan — item frequency counts. Threads stripe
		// over transactions; execution is DEX-serialized, so the shared
		// read-modify-write counters behave like the paper's per-thread
		// counters merged at the barrier.
		for tx := core; tx < w.ntx; tx += w.threads {
			start := int(w.offsets.At(t, tx))
			end := int(w.offsets.At(t, tx+1))
			for k := start; k < end; k++ {
				it := w.items.At(t, k)
				// The shared counter increment is a lock-protected
				// read-modify-write in the parallel first scan.
				t.Critical(func() {
					w.counts.Set(t, int(it), w.counts.At(t, int(it))+1)
				})
				t.Exec(1)
			}
		}
		barrier.Wait(t)

		// Core 0 ranks the frequent items by descending support.
		if core == 0 {
			type ic struct{ item, cnt int32 }
			freq := make([]ic, 0, 256)
			for i := 0; i < w.nitems; i++ {
				c := w.counts.At(t, i)
				t.Exec(1)
				if c >= w.minsup {
					freq = append(freq, ic{int32(i), c})
				}
			}
			sort.Slice(freq, func(a, b int) bool { return freq[a].cnt > freq[b].cnt })
			for i := 0; i < w.nitems; i++ {
				w.rank.Set(t, i, -1)
			}
			for r, f := range freq {
				w.rank.Set(t, int(f.item), int32(r))
				w.rankItm.Set(t, r, f.item)
			}
			w.global.reset(t, len(freq))
		}
		barrier.Wait(t)
		nfreq := w.global.nitems

		// Stage 2: FP-tree construction. Each thread inserts its
		// transactions (filtered to frequent items, sorted by rank).
		ranks := make([]int32, 0, 64)
		for tx := core; tx < w.ntx; tx += w.threads {
			start := int(w.offsets.At(t, tx))
			end := int(w.offsets.At(t, tx+1))
			ranks = ranks[:0]
			for k := start; k < end; k++ {
				it := w.items.At(t, k)
				if r := w.rank.At(t, int(it)); r >= 0 {
					ranks = append(ranks, r)
				}
				t.Exec(1)
			}
			sortRanks(ranks)
			if len(ranks) > 0 {
				// Tree insertion mutates shared child lists and
				// nodelink heads: a lock-protected section on real
				// hardware, a no-preemption section under DEX.
				t.Critical(func() {
					w.global.insert(t, ranks, 1)
					for _, r := range ranks {
						w.global.headCnt.Set(t, int(r), w.global.headCnt.At(t, int(r))+1)
					}
				})
			}
		}
		barrier.Wait(t)

		// Stage 3: mining. Threads take frequent items round-robin,
		// least frequent (deepest rank) first, building private
		// conditional trees.
		priv := sp.NewArena(fmt.Sprintf("fimi/cond%d", core),
			uint64(maxPatternLen)*condCap*nodeFields*4+uint64(maxPatternLen)*uint64(nfreq)*8+1<<16)
		condPool := make([]*tree, maxPatternLen)
		for d := range condPool {
			condPool[d] = newTree(priv, condCap, nfreq)
		}
		var out []Itemset
		suffix := make([]int32, 0, maxPatternLen)
		for r := nfreq - 1 - core; r >= 0; r -= w.threads {
			sup := w.global.headCnt.At(t, r)
			if sup < w.minsup {
				continue
			}
			item := w.rankItm.At(t, r)
			suffix = suffix[:0]
			suffix = append(suffix, item)
			out = append(out, Itemset{Items: itemsetOf(suffix), Support: sup})
			out = w.mine(t, w.global, r, suffix, condPool, 0, out)
		}
		w.perThread[core] = out
		barrier.Wait(t)
		if core == 0 {
			w.Frequent = w.Frequent[:0]
			for _, part := range w.perThread {
				w.Frequent = append(w.Frequent, part...)
			}
			sortItemsets(w.Frequent)
		}
	}), nil
}

// condCap bounds each conditional tree's node count.
const condCap = 2048

// mine builds the conditional tree of item-rank r in src and recurses.
func (w *Workload) mine(t *softsdv.Thread, src *tree, r int, suffix []int32,
	pool []*tree, depth int, out []Itemset) []Itemset {
	if depth >= len(pool) || len(suffix) >= maxPatternLen {
		return out
	}
	cond := pool[depth]
	cond.reset(t, cond.nitems)

	// Walk r's nodelink chain; for each node, walk the parent chain to
	// collect the prefix path, then insert it into the conditional tree.
	path := make([]int32, 0, 32)
	n := src.headLink.At(t, r)
	for n != -1 {
		cnt := src.get(t, int(n), fCount)
		path = path[:0]
		p := src.get(t, int(n), fParent)
		for p > 0 { // stop at root (node 0)
			path = append(path, src.get(t, int(p), fItem))
			p = src.get(t, int(p), fParent)
			t.Exec(3) // path append + index arithmetic + loop test
		}
		if len(path) > 0 {
			reverse(path)
			cond.insert(t, path, cnt)
			for _, pr := range path {
				cond.headCnt.Set(t, int(pr), cond.headCnt.At(t, int(pr))+cnt)
			}
		}
		n = src.get(t, int(n), fNodelink)
		t.Exec(1)
	}

	// Emit frequent extensions and recurse.
	for cr := cond.nitems - 1; cr >= 0; cr-- {
		sup := cond.headCnt.At(t, cr)
		t.Exec(1)
		if sup < w.minsup {
			continue
		}
		item := w.rankItm.At(t, cr)
		next := append(suffix, item)
		out = append(out, Itemset{Items: itemsetOf(next), Support: sup})
		out = w.mine(t, cond, cr, next, pool, depth+1, out)
	}
	return out
}

// sortRanks sorts ascending (rank 0 = most frequent first in the path).
func sortRanks(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// reverse flips a path in place.
func reverse(a []int32) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// itemsetOf copies and canonicalizes (ascending item id) an itemset.
func itemsetOf(items []int32) []int32 {
	out := append([]int32(nil), items...)
	sortRanks(out)
	return out
}

// sortItemsets orders results deterministically for comparison.
func sortItemsets(sets []Itemset) {
	sort.Slice(sets, func(a, b int) bool {
		x, y := sets[a].Items, sets[b].Items
		for i := 0; i < len(x) && i < len(y); i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		if len(x) != len(y) {
			return len(x) < len(y)
		}
		return sets[a].Support < sets[b].Support
	})
}
