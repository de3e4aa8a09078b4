package core

import (
	"sync"
	"testing"

	"cmpmem/internal/metrics"
	"cmpmem/internal/workloads"
)

// shapeParams runs the shape tests at 1/32 scale: half the harness
// default, fast enough for CI while preserving every relative shape
// (workloads and cache sweeps scale together).
func shapeParams() workloads.Params {
	return workloads.Params{Seed: 1, Scale: 1.0 / 32}
}

// shapeRows are the shape tests' exhibits, filled by one table run.
type shapeRows struct {
	fig4, lcmp, fig7 []metrics.Series
	fig8             []Fig8Row
	table2           []Table2Row
	proj64, proj128  []ProjectionRow
	dram             []DRAMCacheRow
	llcorg           []LLCOrgRow
}

// shapeTable runs every shape test's exhibits as one table: Figure 4
// (SCMP), the LCMP cache sweep, Figure 7, Figure 8 and Table 2 at
// shapeParams — 32 (workload, platform) executions, 8 workloads on 1,
// 8, 16 and 32 cores — plus the projection studies, each at its own
// scale: the 64-core projection and the shared-vs-private study at
// 1/128, the default 128-core projection at 1/512 and the DRAM-LLC
// study at 1/64. It runs on first use, so a shape test run alone pays
// for the whole table.
var shapeTable = sync.OnceValues(func() (shapeRows, error) {
	p := shapeParams()
	at := func(scale float64) workloads.Params { return workloads.Params{Seed: 1, Scale: scale} }
	var r shapeRows
	var all, ex []Exhibit
	r.fig4, ex = CacheSweepExhibits(nil, p, 8)
	all = append(all, ex...)
	r.lcmp, ex = CacheSweepExhibits(nil, p, 32)
	all = append(all, ex...)
	r.fig7, ex = LineSweepExhibits(nil, p)
	all = append(all, ex...)
	r.fig8, ex = Fig8Exhibits(nil, p)
	all = append(all, ex...)
	r.table2, ex = Table2Exhibits(nil, p)
	all = append(all, ex...)
	r.proj64, ex = ProjectionExhibits(nil, at(1.0/128), 64)
	all = append(all, ex...)
	r.proj128, ex = ProjectionExhibits(nil, at(1.0/512), 0)
	all = append(all, ex...)
	r.dram, ex = DRAMCacheExhibits(nil, at(1.0/64), 16)
	all = append(all, ex...)
	r.llcorg, ex = LLCOrgExhibits(nil, at(1.0/128), 8, 32)
	all = append(all, ex...)
	return r, RunExhibits(all)
})

// shapes returns the shared table run's rows.
func shapes(t *testing.T) shapeRows {
	t.Helper()
	r, err := shapeTable()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// seriesByName indexes sweep output.
func seriesByName(ss []metrics.Series) map[string]*metrics.Series {
	out := make(map[string]*metrics.Series, len(ss))
	for i := range ss {
		out[ss[i].Name] = &ss[i]
	}
	return out
}

// TestFigure4Shapes verifies the paper's headline cache-size findings on
// the 8-core SCMP: monotone-non-increasing curves, a flat MDS curve
// (its sparse matrix exceeds every cache), near-flat small-working-set
// workloads (SVM-RFE/PLSA/RSEARCH), and a SHOT knee at 32 MB
// paper-equivalent.
func TestFigure4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cache sweep is too slow for -short")
	}
	series := shapes(t).fig4
	byName := seriesByName(series)

	for _, s := range series {
		for i := 1; i < len(s.Points); i++ {
			// Allow 5% jitter: set-associative curves are not strictly
			// monotone.
			if s.Points[i].Y > s.Points[i-1].Y*1.05 {
				t.Errorf("%s: MPKI rises with cache size at %g MB: %.3f -> %.3f",
					s.Name, s.Points[i].X, s.Points[i-1].Y, s.Points[i].Y)
			}
		}
	}

	if f := byName["MDS"].Flatness(); f > 2.0 {
		t.Errorf("MDS curve not flat: max/min = %.2f (paper: no benefit from any size)", f)
	}
	if f := byName["PLSA"].Flatness(); f > 1.5 {
		t.Errorf("PLSA curve not flat: max/min = %.2f", f)
	}
	// RSEARCH's fixed-size per-thread tables (k-mer filter, DP tile) do
	// not shrink with the footprint scale, so at 1/32 the curve is less
	// flat than at harness scale (1/16), where max/min is ~1.01.
	if f := byName["RSEARCH"].Flatness(); f > 3.0 {
		t.Errorf("RSEARCH curve not flat on SCMP: max/min = %.2f (4 MB working set)", f)
	}

	// SHOT: large at 16, small at 64 (knee at 32 MB paper-equivalent).
	shot := byName["SHOT"]
	y16, _ := shot.YAt(16)
	y64, _ := shot.YAt(64)
	if y16 < 4*y64 {
		t.Errorf("SHOT knee missing: MPKI(16MB)=%.2f vs MPKI(64MB)=%.2f", y16, y64)
	}
}

// TestThreadScalingShapes verifies Section 4.3's two sharing categories
// across SCMP -> LCMP: shared-working-set workloads are invariant with
// thread count; private-working-set workloads' knees move right
// (working set grows with cores).
func TestThreadScalingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cache sweeps are too slow for -short")
	}
	rows := shapes(t)
	b8, b32 := seriesByName(rows.fig4), seriesByName(rows.lcmp)

	// Category (a): invariant curves (compare at the 32 MB point). The
	// bound is loose because per-thread bookkeeping buffers do not
	// shrink with scale; at harness scale (1/16) these workloads move
	// by less than 15%.
	for _, name := range []string{"SNP", "SVM-RFE", "MDS", "PLSA"} {
		y8, _ := b8[name].YAt(32)
		y32, _ := b32[name].YAt(32)
		if y8 == 0 {
			continue
		}
		if y32 < y8*0.3 || y32 > y8*3 {
			t.Errorf("%s: shared-WS workload changed with threads: MPKI(8c)=%.2f MPKI(32c)=%.2f",
				name, y8, y32)
		}
	}

	// Private working sets: SHOT's 8-core knee point must still be
	// expensive at 32 cores (the working set quadrupled).
	shotY8, _ := b8["SHOT"].YAt(64)   // past the 8-core knee: cheap
	shotY32, _ := b32["SHOT"].YAt(64) // before the 32-core knee: expensive
	if shotY32 < 4*shotY8 {
		t.Errorf("SHOT working set did not grow with threads: MPKI(64MB)@8c=%.2f @32c=%.2f",
			shotY8, shotY32)
	}

	// Mixed category: FIMI misses grow with thread count at mid sizes.
	fimi8, _ := b8["FIMI"].YAt(32)
	fimi32, _ := b32["FIMI"].YAt(32)
	if fimi32 <= fimi8 {
		t.Errorf("FIMI misses did not grow with threads: %.2f -> %.2f", fimi8, fimi32)
	}
}

// TestFigure7Shapes verifies the line-size study: every workload
// improves from 64 B to 256 B, and the streaming workloads improve
// close to linearly.
func TestFigure7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("line sweep is too slow for -short")
	}
	series := shapes(t).fig7
	for _, s := range series {
		y64, _ := s.YAt(64)
		y256, _ := s.YAt(256)
		if y64 == 0 {
			continue
		}
		if y256 >= y64 {
			t.Errorf("%s: no benefit from 64B -> 256B lines: %.3f -> %.3f", s.Name, y64, y256)
		}
	}
	// Streaming workloads: near-linear reduction (>= 3x over 4x line).
	for _, name := range []string{"MDS", "SHOT", "PLSA"} {
		for _, s := range series {
			if s.Name != name {
				continue
			}
			y64, _ := s.YAt(64)
			y256, _ := s.YAt(256)
			if y64 > 0 && y64/y256 < 3 {
				t.Errorf("%s: streaming miss reduction only %.2fx from 64B to 256B", name, y64/y256)
			}
		}
	}
}

// TestFigure8Shapes verifies the prefetching study's robust findings:
// prefetching never hurts materially, the serial gains peak in the
// paper's reported range, and the bandwidth-saturated workloads
// (SNP, MDS) gain less in 16-thread mode while SHOT gains more.
func TestFigure8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("prefetch study is too slow for -short")
	}
	rows := shapes(t).fig8
	byName := map[string]Fig8Row{}
	var peak float64
	for _, r := range rows {
		byName[r.Workload] = r
		if r.SerialGainPct > peak {
			peak = r.SerialGainPct
		}
		if r.SerialGainPct < -2 || r.ParallelGainPct < -2 {
			t.Errorf("%s: prefetching hurt: serial %+.1f%% parallel %+.1f%%",
				r.Workload, r.SerialGainPct, r.ParallelGainPct)
		}
	}
	if peak < 5 || peak > 80 {
		t.Errorf("peak serial gain %.1f%% outside plausible range (paper: up to ~33%%)", peak)
	}
	for _, name := range []string{"SNP", "MDS"} {
		r := byName[name]
		if r.ParallelGainPct >= r.SerialGainPct {
			t.Errorf("%s: parallel gain %+.1f%% not below serial %+.1f%% (bus contention)",
				name, r.ParallelGainPct, r.SerialGainPct)
		}
	}
	if r := byName["SHOT"]; r.ParallelGainPct <= r.SerialGainPct {
		t.Errorf("SHOT: parallel gain %+.1f%% not above serial %+.1f%%",
			r.ParallelGainPct, r.SerialGainPct)
	}
}

// TestTable2Shapes verifies the single-threaded profile's robust
// orderings: PLSA has the highest memory-instruction share and the
// lowest DL2 miss rate; MDS is among the slowest (lowest IPC); every
// workload is memory-intensive (>= 40% memory instructions); reads
// dominate writes.
func TestTable2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 profiling is too slow for -short")
	}
	rows := shapes(t).table2
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.PctMem < 35 {
			t.Errorf("%s: only %.1f%% memory instructions (paper: roughly half or more)",
				r.Workload, r.PctMem)
		}
		if r.PctMemRead <= r.PctMem/2 {
			t.Errorf("%s: reads are not the majority of memory instructions (%.1f%% of %.1f%%)",
				r.Workload, r.PctMemRead, r.PctMem)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC = %v", r.Workload, r.IPC)
		}
	}
	plsa := byName["PLSA"]
	for _, r := range rows {
		if r.Workload != "PLSA" && r.PctMem > plsa.PctMem {
			t.Errorf("%s memory share %.1f%% exceeds PLSA's %.1f%% (paper: PLSA highest at 83%%)",
				r.Workload, r.PctMem, plsa.PctMem)
		}
		if r.Workload != "PLSA" && r.DL2MissPer1k < plsa.DL2MissPer1k {
			t.Errorf("%s DL2 MPKI %.2f below PLSA's %.2f (paper: PLSA lowest)",
				r.Workload, r.DL2MissPer1k, plsa.DL2MissPer1k)
		}
	}
	if mds := byName["MDS"]; mds.IPC > plsa.IPC {
		t.Errorf("MDS IPC %.2f above PLSA's %.2f (paper: MDS 0.06 vs PLSA 1.08)",
			mds.IPC, plsa.IPC)
	}
}
