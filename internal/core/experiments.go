// Experiment definitions: one table of exhibits, one function that runs
// it, and one declaration per table/figure of the paper's evaluation
// section. Each exhibit is the MEMIC loop — enumerate configs ×
// workloads, run, reduce — with the run shared: RunExhibits executes
// each (workload, platform) once for every exhibit that needs it. The
// rows are plain data; rendering lives in internal/report.

package core

import (
	"fmt"
	"slices"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/metrics"
	"cmpmem/internal/par"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// orAll resolves an exhibit's workload selection: nil is every
// registered workload, in Table 1 order.
func orAll(names []string) []string {
	if names == nil {
		return registry.Names()
	}
	return names
}

// Exhibit is one row of the exhibit table: what an exhibit asks of each
// selected workload's execution on a Threads-core platform, and how it
// reads the answer back.
type Exhibit struct {
	Threads int
	LLCs    []cache.Config
	Hiers   []hier.Config
	// Snoopers builds fresh whole-stream observers for workload w (its
	// index in the selection); nil for none.
	Snoopers func(w int) ([]fsb.Snooper, error)
	// Row reduces workload w's answer into the exhibit's rows. Rows of
	// different workloads and platforms run concurrently.
	Row func(w int, a Answer)
}

// Answer is an exhibit's share of one execution: its LLC results in
// grid order, its hierarchies' in Hiers order, and the run's totals.
type Answer struct {
	LLCs    []LLCResult
	Hiers   []HierResult
	Summary RunSummary
}

// RunExhibits runs the exhibit table over the selected workloads (nil =
// all eight). The exhibits on one platform share one execution per
// workload, whose single pass answers all their grids, hierarchies and
// snoopers. The answers are exact: WithSampling does not apply. The
// (platform, workload) groups run on the WithParallelism pool in
// platform-major order, so the executions in flight at once are on one
// platform, and the first error cancels the rest.
func RunExhibits(names []string, p workloads.Params, exhibits []Exhibit, opts ...RunOption) error {
	names, p, ro := orAll(names), p.WithDefaults(), applyOpts(opts)
	var threads []int // platforms in order of first appearance
	groups := map[int][]Exhibit{}
	for _, e := range exhibits {
		if groups[e.Threads] == nil {
			threads = append(threads, e.Threads)
		}
		groups[e.Threads] = append(groups[e.Threads], e)
	}
	ro.tel.Expect(len(threads) * len(names))
	return par.ForEach(ro.jobs, len(threads)*len(names), func(i int) error {
		pc, w := PlatformConfig{Threads: threads[i/len(names)], Seed: p.Seed}, i%len(names)
		if err := runGroup(names[w], w, p, pc, groups[pc.Threads], ro); err != nil {
			return fmt.Errorf("%s on %d cores: %w", names[w], pc.Threads, err)
		}
		return nil
	})
}

// runGroup answers one platform's exhibits for workload w on one exact
// execution.
func runGroup(name string, w int, p workloads.Params, pc PlatformConfig, exhibits []Exhibit, ro runOpts) error {
	var grid []cache.Config
	var hcs []hier.Config
	var observers []fsb.Snooper
	for _, e := range exhibits {
		grid, hcs = append(grid, e.LLCs...), append(hcs, e.Hiers...)
		if e.Snoopers != nil {
			s, err := e.Snoopers(w)
			if err != nil {
				return err
			}
			observers = append(observers, s...)
		}
	}
	ro.sampling = SamplingOff
	llcs, hiers, sum, err := sweep(name, p, pc, [][]cache.Config{grid}, hcs, observers, ro)
	if err != nil {
		return err
	}
	for _, e := range exhibits {
		e.Row(w, Answer{LLCs: llcs[:len(e.LLCs):len(e.LLCs)], Hiers: hiers[:len(e.Hiers):len(e.Hiers)], Summary: sum})
		llcs, hiers = llcs[len(e.LLCs):], hiers[len(e.Hiers):]
	}
	return nil
}

// runTable runs a runner's exhibits and returns its rows, which the
// exhibits' Row functions have filled.
func runTable[T any](rows []T, exhibits []Exhibit, names []string, p workloads.Params, opts []RunOption) ([]T, error) {
	if err := RunExhibits(names, p, exhibits, opts...); err != nil {
		return nil, err
	}
	return rows, nil
}

// PaperCacheSizesMB is the Figure 4-6 sweep in paper units.
var PaperCacheSizesMB = []int{4, 8, 16, 32, 64, 128, 256}

// PaperLineSizes is the Figure 7 sweep (bytes).
var PaperLineSizes = []uint64{64, 128, 256, 512, 1024, 2048, 4096}

// LLCAssoc is the emulated LLC associativity (the FPGA emulates a
// highly-associative shared LLC; 16 ways keeps conflict effects small).
const LLCAssoc = 16

// fig7PaperLLCMB is the LLC size of the line-size study (32 MB).
const fig7PaperLLCMB = 32

// CacheSweepConfigs returns the Figure 4-6 LLC configurations scaled by
// the workload scale: paper sizes 4-256 MB at 64 B lines.
func CacheSweepConfigs(scale float64) []cache.Config {
	if scale == 0 {
		scale = workloads.DefaultScale
	}
	out := make([]cache.Config, 0, len(PaperCacheSizesMB))
	for _, mb := range PaperCacheSizesMB {
		size := scaledCacheBytes(mb, scale)
		out = append(out, cache.Config{
			Name:     fmt.Sprintf("LLC-%dMB", mb),
			Size:     size,
			LineSize: 64,
			Assoc:    LLCAssoc,
		})
	}
	return out
}

// LineSweepConfigs returns the Figure 7 LLC configurations: a 32 MB
// paper-equivalent LLC at each line size.
func LineSweepConfigs(scale float64) []cache.Config {
	if scale == 0 {
		scale = workloads.DefaultScale
	}
	size := scaledCacheBytes(fig7PaperLLCMB, scale)
	out := make([]cache.Config, 0, len(PaperLineSizes))
	for _, ls := range PaperLineSizes {
		assoc := LLCAssoc
		for uint64(assoc) > size/ls {
			assoc /= 2
		}
		out = append(out, cache.Config{
			Name:     fmt.Sprintf("LLC-32MB/%dB", ls),
			Size:     size,
			LineSize: ls,
			Assoc:    assoc,
		})
	}
	return out
}

// scaledCacheBytes converts a paper-units cache size to simulated bytes,
// rounding to a power of two (set counts must stay powers of two).
func scaledCacheBytes(paperMB int, scale float64) uint64 {
	target := float64(paperMB) * float64(1<<20) * scale
	size := uint64(1) << 12
	for float64(size*2) <= target {
		size *= 2
	}
	return size
}

// Table1Row reproduces Table 1 (input parameters and datasets).
type Table1Row struct {
	Workload   string
	Parameters string
	DataSize   string
}

// Table1 returns the selected workloads' dataset descriptions at the
// configured scale (nil names = all eight). Nothing executes.
func Table1(names []string, p workloads.Params) []Table1Row {
	names = orAll(names)
	rows := make([]Table1Row, 0, len(names))
	for _, w := range registry.All(p) {
		if slices.Contains(names, w.Name()) {
			params, size := w.Table1()
			rows = append(rows, Table1Row{Workload: w.Name(), Parameters: params, DataSize: size})
		}
	}
	return rows
}

// Table2Row reproduces one row of Table 2 (workload characteristics,
// single-threaded on the P4-class profiling machine).
type Table2Row struct {
	Workload       string
	IPC            float64
	Instructions   uint64
	PctMem         float64
	PctMemRead     float64
	DL1AccessPer1k float64
	DL1MissPer1k   float64
	DL2MissPer1k   float64
}

// Table2Exhibits declares Table 2: the rows and the exhibit that fills
// them, one single-threaded profiling run through the P4 hierarchy
// model per selected workload (nil names = all eight).
func Table2Exhibits(names []string, p workloads.Params) ([]Table2Row, []Exhibit) {
	names = orAll(names)
	rows := make([]Table2Row, len(names))
	return rows, []Exhibit{{Threads: 1, Hiers: []hier.Config{hier.PentiumIV(p.Scale)}, Row: func(w int, a Answer) {
		res, sum, inst := a.Hiers[0], a.Summary, a.Summary.Instructions
		memInst := sum.Loads + sum.Stores
		rows[w] = Table2Row{
			Workload:       names[w],
			IPC:            res.IPC,
			Instructions:   inst,
			PctMem:         100 * metrics.Rate(memInst, inst),
			PctMemRead:     100 * metrics.Rate(sum.Loads, inst),
			DL1AccessPer1k: metrics.MPKI(res.L1.Accesses, inst),
			DL1MissPer1k:   metrics.MPKI(res.L1.Misses, inst),
			DL2MissPer1k:   metrics.MPKI(res.L2.Misses, inst),
		}
	}}}
}

// Table2 runs Table2Exhibits.
func Table2(names []string, p workloads.Params, opts ...RunOption) ([]Table2Row, error) {
	rows, ex := Table2Exhibits(names, p)
	return runTable(rows, ex, names, p, opts)
}

// CacheSweepExhibits declares the Figure 4/5/6 series: LLC misses per
// 1000 instructions as a function of (paper-equivalent) cache size, one
// series per selected workload (nil names = all eight), at the given
// core count.
func CacheSweepExhibits(names []string, p workloads.Params, cores int) ([]metrics.Series, []Exhibit) {
	return mpkiExhibits(names, cores, CacheSweepConfigs(p.Scale), PaperCacheSizesMB)
}

// CacheSweep runs CacheSweepExhibits.
func CacheSweep(names []string, p workloads.Params, cores int, opts ...RunOption) ([]metrics.Series, error) {
	series, ex := CacheSweepExhibits(names, p, cores)
	return runTable(series, ex, names, p, opts)
}

// LineSweepExhibits declares the Figure 7 series: LLC MPKI vs line size
// on the 32-core LCMP with a 32 MB paper-equivalent LLC.
func LineSweepExhibits(names []string, p workloads.Params) ([]metrics.Series, []Exhibit) {
	return mpkiExhibits(names, 32, LineSweepConfigs(p.Scale), PaperLineSizes)
}

// LineSweep runs LineSweepExhibits.
func LineSweep(names []string, p workloads.Params, opts ...RunOption) ([]metrics.Series, error) {
	series, ex := LineSweepExhibits(names, p)
	return runTable(series, ex, names, p, opts)
}

// mpkiExhibits declares one MPKI series per selected workload over
// configs on the given core count, config k plotted at xs[k].
func mpkiExhibits[X int | uint64](names []string, cores int, configs []cache.Config, xs []X) ([]metrics.Series, []Exhibit) {
	names = orAll(names)
	series := make([]metrics.Series, len(names))
	return series, []Exhibit{{Threads: cores, LLCs: configs, Row: func(w int, a Answer) {
		series[w].Name = names[w]
		for k, r := range a.LLCs {
			series[w].Add(float64(xs[k]), r.MPKI)
		}
	}}}
}

// Fig8Row reports the hardware-prefetching gain for one workload.
type Fig8Row struct {
	Workload        string
	SerialGainPct   float64
	ParallelGainPct float64
}

// Fig8Threads is the parallel mode of the prefetching study (the 16-way
// Unisys machine).
const Fig8Threads = 16

// Fig8Exhibits declares Figure 8: the performance gain of enabling the
// stride prefetcher on the Xeon-class hierarchy model, serial and
// 16-threaded, for the selected workloads (nil names = all eight). Each
// platform times prefetch off and on as co-snoopers of one execution.
func Fig8Exhibits(names []string, p workloads.Params) ([]Fig8Row, []Exhibit) {
	p, names = p.WithDefaults(), orAll(names)
	rows := make([]Fig8Row, len(names))
	for w, name := range names {
		rows[w].Workload = name
	}
	gain := func(threads int, pct func(*Fig8Row) *float64) Exhibit {
		pf := prefetch.DefaultConfig(64)
		hcs := []hier.Config{hier.Xeon16(threads, p.Scale, nil), hier.Xeon16(threads, p.Scale, &pf)}
		return Exhibit{Threads: threads, Hiers: hcs, Row: func(w int, a Answer) {
			*pct(&rows[w]) = metrics.SpeedupPct(a.Hiers[0].Cycles, a.Hiers[1].Cycles)
		}}
	}
	return rows, []Exhibit{
		gain(1, func(r *Fig8Row) *float64 { return &r.SerialGainPct }),
		gain(Fig8Threads, func(r *Fig8Row) *float64 { return &r.ParallelGainPct }),
	}
}

// Fig8 runs Fig8Exhibits.
func Fig8(names []string, p workloads.Params, opts ...RunOption) ([]Fig8Row, error) {
	rows, ex := Fig8Exhibits(names, p)
	return runTable(rows, ex, names, p, opts)
}
