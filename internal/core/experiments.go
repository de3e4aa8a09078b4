// Experiment definitions: one table of exhibits, one function that runs
// it, and one declaration per table/figure of the paper's evaluation
// section. Each exhibit is the MEMIC loop — enumerate configs ×
// workloads, run, reduce — with the run shared: RunExhibits executes
// each (workload, params, platform) once for every exhibit that needs
// it. The rows are plain data; rendering lives in internal/report.

package core

import (
	"cmp"
	"fmt"
	"slices"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/metrics"
	"cmpmem/internal/par"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/tracestore"
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
// of its workloads' executions on a Threads-core platform at Params, and
// how it reads the answer back.
type Exhibit struct {
	// Workloads are the workloads the row covers, already resolved;
	// Row's w indexes them.
	Workloads []string
	Params    workloads.Params
	Threads   int
	LLCs      []cache.Config
	Hiers     []hier.Config
	// Snoopers builds fresh whole-stream observers for workload w; nil
	// for none.
	Snoopers func(w int) ([]fsb.Snooper, error)
	// Row reduces workload w's answer into the exhibit's rows. Rows of
	// different executions run concurrently.
	Row func(w int, a Answer)
}

// Answer is an exhibit's share of one execution: its LLC results in
// grid order, its hierarchies' in Hiers order, and the run's totals.
type Answer struct {
	LLCs    []LLCResult
	Hiers   []HierResult
	Summary RunSummary
}

// group is the rows of the exhibit table that share a TraceKey: one
// execution answers them all, rows[i] as its workload ws[i].
type group struct {
	name     string
	p        workloads.Params
	pc       PlatformConfig
	platform int // first appearance of the rows' (Params, Threads)
	rows     []Exhibit
	ws       []int
}

// RunExhibits runs the exhibit table. Rows whose workload, Params and
// Threads give one TraceKey share one execution, whose single pass
// answers all their grids, hierarchies and snoopers, exactly:
// WithSampling does not apply. The executions run on the
// WithParallelism pool in platform-major order, each (Params, Threads)
// by first appearance, so those in flight at once are on one platform;
// the first error cancels the rest.
func RunExhibits(exhibits []Exhibit, opts ...RunOption) error {
	platforms, byKey := map[tracestore.Key]int{}, map[tracestore.Key]*group{}
	var groups []*group
	for _, e := range exhibits {
		p := e.Params.WithDefaults()
		pc := PlatformConfig{Threads: e.Threads, Seed: p.Seed}
		pk := TraceKey("", p, pc)
		if _, ok := platforms[pk]; !ok {
			platforms[pk] = len(platforms)
		}
		for w, name := range e.Workloads {
			k := TraceKey(name, p, pc)
			g := byKey[k]
			if g == nil {
				g = &group{name: name, p: p, pc: pc, platform: platforms[pk]}
				byKey[k], groups = g, append(groups, g)
			}
			g.rows, g.ws = append(g.rows, e), append(g.ws, w)
		}
	}
	slices.SortStableFunc(groups, func(a, b *group) int { return cmp.Compare(a.platform, b.platform) })
	ro := applyOpts(opts)
	ro.sampling = SamplingOff
	ro.tel.Expect(len(groups))
	return par.ForEach(ro.jobs, len(groups), func(i int) error {
		if err := groups[i].run(ro); err != nil {
			return fmt.Errorf("%s on %d cores: %w", groups[i].name, groups[i].pc.Threads, err)
		}
		return nil
	})
}

// run answers the group's rows on one exact execution.
func (g *group) run(ro runOpts) error {
	var grid []cache.Config
	var hcs []hier.Config
	var observers []fsb.Snooper
	for i, e := range g.rows {
		grid, hcs = append(grid, e.LLCs...), append(hcs, e.Hiers...)
		if e.Snoopers != nil {
			s, err := e.Snoopers(g.ws[i])
			if err != nil {
				return err
			}
			observers = append(observers, s...)
		}
	}
	llcs, hiers, sum, err := sweep(g.name, g.p, g.pc, [][]cache.Config{grid}, hcs, observers, ro)
	if err != nil {
		return err
	}
	for i, e := range g.rows {
		e.Row(g.ws[i], Answer{LLCs: llcs[:len(e.LLCs):len(e.LLCs)], Hiers: hiers[:len(e.Hiers):len(e.Hiers)], Summary: sum})
		llcs, hiers = llcs[len(e.LLCs):], hiers[len(e.Hiers):]
	}
	return nil
}

// runTable runs a runner's exhibits and returns its rows, which the
// exhibits' Row functions have filled.
func runTable[T any](rows []T, exhibits []Exhibit, opts []RunOption) ([]T, error) {
	if err := RunExhibits(exhibits, opts...); err != nil {
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
// the workload scale (<= 0: the default): paper sizes 4-256 MB at 64 B
// lines.
func CacheSweepConfigs(scale float64) []cache.Config {
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

// scaledCacheBytes converts a paper-units LLC size to simulated bytes
// (workloads.ScaleCache, 4 KiB floor).
func scaledCacheBytes(paperMB int, scale float64) uint64 {
	return workloads.ScaleCache(uint64(paperMB)<<20, scale, 4<<10)
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
	return rows, []Exhibit{{Workloads: names, Params: p, Threads: 1, Hiers: []hier.Config{hier.PentiumIV(p.Scale)}, Row: func(w int, a Answer) {
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
	return runTable(rows, ex, opts)
}

// CacheSweepExhibits declares the Figure 4/5/6 series: LLC misses per
// 1000 instructions as a function of (paper-equivalent) cache size, one
// series per selected workload (nil names = all eight), at the given
// core count.
func CacheSweepExhibits(names []string, p workloads.Params, cores int) ([]metrics.Series, []Exhibit) {
	return mpkiExhibits(names, p, cores, CacheSweepConfigs(p.Scale), PaperCacheSizesMB)
}

// CacheSweep runs CacheSweepExhibits.
func CacheSweep(names []string, p workloads.Params, cores int, opts ...RunOption) ([]metrics.Series, error) {
	series, ex := CacheSweepExhibits(names, p, cores)
	return runTable(series, ex, opts)
}

// LineSweepExhibits declares the Figure 7 series: LLC MPKI vs line size
// on the 32-core LCMP with a 32 MB paper-equivalent LLC.
func LineSweepExhibits(names []string, p workloads.Params) ([]metrics.Series, []Exhibit) {
	return mpkiExhibits(names, p, 32, LineSweepConfigs(p.Scale), PaperLineSizes)
}

// LineSweep runs LineSweepExhibits.
func LineSweep(names []string, p workloads.Params, opts ...RunOption) ([]metrics.Series, error) {
	series, ex := LineSweepExhibits(names, p)
	return runTable(series, ex, opts)
}

// mpkiExhibits declares one MPKI series per selected workload over
// configs on the given core count, config k plotted at xs[k].
func mpkiExhibits[X int | uint64](names []string, p workloads.Params, cores int, configs []cache.Config, xs []X) ([]metrics.Series, []Exhibit) {
	names = orAll(names)
	series := make([]metrics.Series, len(names))
	return series, []Exhibit{{Workloads: names, Params: p, Threads: cores, LLCs: configs, Row: func(w int, a Answer) {
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
		return Exhibit{Workloads: names, Params: p, Threads: threads, Hiers: hcs, Row: func(w int, a Answer) {
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
	return runTable(rows, ex, opts)
}
