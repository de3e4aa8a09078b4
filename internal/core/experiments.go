// Experiment definitions: one runner per table/figure of the paper's
// evaluation section. Each returns plain data; rendering lives in
// internal/report.

package core

import (
	"fmt"
	"slices"

	"cmpmem/internal/cache"
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

// forEachWorkload runs fn once per selected workload on the option
// set's bounded worker pool (default GOMAXPROCS) and returns the rows
// in selection order. Runs are independent — each builds its own
// dataset, address space, and platform — so ordering is deterministic,
// and the first error cancels whatever has not started yet.
func forEachWorkload[T any](names []string, ro runOpts, fn func(name string) (T, error)) ([]T, error) {
	names = orAll(names)
	rows := make([]T, len(names))
	err := par.ForEach(ro.jobs, len(names), func(i int) error {
		var err error
		rows[i], err = fn(names[i])
		return err
	})
	if err != nil {
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

// Table2 profiles the selected workloads (nil names = all eight)
// single-threaded through the P4 hierarchy model, one profiling run per
// pool worker.
func Table2(names []string, p workloads.Params, opts ...RunOption) ([]Table2Row, error) {
	ro := applyOpts(opts)
	ro.tel.Expect(len(orAll(names)))
	return forEachWorkload(names, ro, func(name string) (Table2Row, error) {
		hres, sum, err := RunHier(name, p, PlatformConfig{Threads: 1, Seed: p.Seed}, []hier.Config{hier.PentiumIV(p.Scale)}, opts...)
		if err != nil {
			return Table2Row{}, fmt.Errorf("table2 %s: %w", name, err)
		}
		res, inst := hres[0], sum.Instructions
		memInst := sum.Loads + sum.Stores
		return Table2Row{
			Workload:       name,
			IPC:            res.IPC,
			Instructions:   inst,
			PctMem:         100 * metrics.Rate(memInst, inst),
			PctMemRead:     100 * metrics.Rate(sum.Loads, inst),
			DL1AccessPer1k: metrics.MPKI(res.L1.Accesses, inst),
			DL1MissPer1k:   metrics.MPKI(res.L1.Misses, inst),
			DL2MissPer1k:   metrics.MPKI(res.L2.Misses, inst),
		}, nil
	})
}

// CacheSweep produces the Figure 4/5/6 series: LLC misses per 1000
// instructions as a function of (paper-equivalent) cache size, one
// series per selected workload (nil names = all eight), at the given
// core count.
func CacheSweep(names []string, p workloads.Params, cores int, opts ...RunOption) ([]metrics.Series, error) {
	p = p.WithDefaults()
	x := func(k int) float64 { return float64(PaperCacheSizesMB[k]) }
	return mpkiSeries(fmt.Sprintf("cache sweep on %d cores", cores), names, p, cores, CacheSweepConfigs(p.Scale), x, opts)
}

// LineSweep produces the Figure 7 series: LLC MPKI vs line size on the
// 32-core LCMP with a 32 MB paper-equivalent LLC.
func LineSweep(names []string, p workloads.Params, opts ...RunOption) ([]metrics.Series, error) {
	p = p.WithDefaults()
	x := func(k int) float64 { return float64(PaperLineSizes[k]) }
	return mpkiSeries("line sweep", names, p, 32, LineSweepConfigs(p.Scale), x, opts)
}

// mpkiSeries sweeps configs for each selected workload on the given
// core count and returns one MPKI series per workload, config k plotted
// at x(k).
func mpkiSeries(what string, names []string, p workloads.Params, cores int, configs []cache.Config, x func(k int) float64, opts []RunOption) ([]metrics.Series, error) {
	ro := applyOpts(opts)
	ro.tel.Expect(len(orAll(names)))
	return forEachWorkload(names, ro, func(name string) (metrics.Series, error) {
		results, _, err := LLCSweep(name, p, PlatformConfig{Threads: cores, Seed: p.Seed}, configs, opts...)
		if err != nil {
			return metrics.Series{}, fmt.Errorf("%s: %s: %w", what, name, err)
		}
		s := metrics.Series{Name: name}
		for k, r := range results {
			s.Add(x(k), r.MPKI)
		}
		return s, nil
	})
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

// Fig8 measures the performance gain of enabling the stride prefetcher
// on the Xeon-class hierarchy model, serial and 16-threaded, for the
// selected workloads (nil names = all eight).
func Fig8(names []string, p workloads.Params, opts ...RunOption) ([]Fig8Row, error) {
	p = p.WithDefaults()
	ro := applyOpts(opts)
	// Each workload costs two executions (serial and 16-thread), each
	// timing prefetch off and on, and each prints its own progress step.
	ro.tel.Expect(2 * len(orAll(names)))
	return forEachWorkload(names, ro, func(name string) (Fig8Row, error) {
		serial, err := prefetchGain(name, p, 1, opts)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 %s serial: %w", name, err)
		}
		par16, err := prefetchGain(name, p, Fig8Threads, opts)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 %s parallel: %w", name, err)
		}
		return Fig8Row{Workload: name, SerialGainPct: serial, ParallelGainPct: par16}, nil
	})
}

// prefetchGain times the workload with and without the prefetcher on
// one execution and returns the percentage cycle reduction.
func prefetchGain(name string, p workloads.Params, threads int, opts []RunOption) (float64, error) {
	pf := prefetch.DefaultConfig(64)
	hcs := []hier.Config{hier.Xeon16(threads, p.Scale, nil), hier.Xeon16(threads, p.Scale, &pf)}
	res, _, err := RunHier(name, p, PlatformConfig{Threads: threads, Seed: p.Seed}, hcs, opts...)
	if err != nil {
		return 0, err
	}
	return metrics.SpeedupPct(res[0].Cycles, res[1].Cycles), nil
}
