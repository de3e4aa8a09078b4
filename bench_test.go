// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each benchmark iteration executes the full experiment at
// benchScale (1/64 of paper footprints — a quarter of the interactive
// harness scale — so `go test -bench=.` completes in minutes) and
// reports the reproduced quantities as custom metrics alongside the
// timing, so the bench output doubles as a miniature results table.
// The simulator's own speed — sweeps, replay, the set path, sharding,
// the sampled tier — is measured by `go run ./bench`, not here; the one
// exception is BenchmarkPlanFamily, the planner's crossover.
//
// Regenerate the full-resolution exhibits with `go run ./cmd/cosim all`.
package cmpmem_test

import (
	"fmt"
	"testing"

	"cmpmem"
	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
)

// benchScale keeps every experiment iteration around a second.
const benchScale = 1.0 / 64

func benchParams() cmpmem.Params { return cmpmem.Params{Seed: 1, Scale: benchScale} }

// BenchmarkTable1 regenerates the input-parameter table (dataset
// construction only — the cheapest exhibit).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := cmpmem.Table1(nil, benchParams())
		if len(rows) != 8 {
			b.Fatal("incomplete table")
		}
	}
}

// BenchmarkTable2 regenerates the workload-characteristics table:
// every workload run single-threaded through the P4-class hierarchy.
func BenchmarkTable2(b *testing.B) {
	var rows []cmpmem.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cmpmem.Table2(nil, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.IPC, "IPC:"+r.Workload)
	}
}

// benchCacheSweep runs one Figure 4/5/6 column (all 8 workloads on one
// platform) and reports each workload's MPKI at the 32 MB paper point.
func benchCacheSweep(b *testing.B, cores int) {
	var series []cmpmem.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = cmpmem.CacheSweep(nil, benchParams(), cores)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if y, err := s.YAt(32); err == nil {
			b.ReportMetric(y, "mpki32MB:"+s.Name)
		}
	}
}

// BenchmarkFig4 is the 8-core SCMP cache-size sweep.
func BenchmarkFig4(b *testing.B) { benchCacheSweep(b, 8) }

// BenchmarkFig5 is the 16-core MCMP cache-size sweep.
func BenchmarkFig5(b *testing.B) { benchCacheSweep(b, 16) }

// BenchmarkFig6 is the 32-core LCMP cache-size sweep.
func BenchmarkFig6(b *testing.B) { benchCacheSweep(b, 32) }

// BenchmarkFig7 is the line-size sensitivity study on the LCMP.
func BenchmarkFig7(b *testing.B) {
	var series []cmpmem.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = cmpmem.LineSweep(nil, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		y64, e1 := s.YAt(64)
		y256, e2 := s.YAt(256)
		if e1 == nil && e2 == nil && y256 > 0 {
			b.ReportMetric(y64/y256, "linegain64to256:"+s.Name)
		}
	}
}

// BenchmarkFig8 is the hardware-prefetching study (serial + 16-thread,
// prefetcher off/on — 32 workload executions per iteration).
func BenchmarkFig8(b *testing.B) {
	var rows []cmpmem.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cmpmem.Fig8(nil, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SerialGainPct, "serialGainPct:"+r.Workload)
		b.ReportMetric(r.ParallelGainPct, "parallelGainPct:"+r.Workload)
	}
}

// BenchmarkAblationQuantum sweeps the DEX time slice: shared-LLC miss
// counts must be nearly quantum-insensitive for shared-working-set
// workloads (DESIGN.md ablation 2).
func BenchmarkAblationQuantum(b *testing.B) {
	for _, quantum := range []uint64{5_000, 50_000, 500_000} {
		b.Run(fmt.Sprintf("quantum=%d", quantum), func(b *testing.B) {
			var mpki float64
			for i := 0; i < b.N; i++ {
				llc := cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16}
				results, _, err := core.LLCSweep("MDS",
					workloads.Params{Seed: 1, Scale: benchScale},
					core.PlatformConfig{Threads: 8, Quantum: quantum, Seed: 1},
					[]cache.Config{llc})
				if err != nil {
					b.Fatal(err)
				}
				mpki = results[0].MPKI
			}
			b.ReportMetric(mpki, "mpki")
		})
	}
}

// BenchmarkAblationBanking compares Dragonhead's 4-bank CC pipeline
// against a monolithic single-bank configuration: miss counts are
// exactly equal (line-interleaved banking is an exact partition of the
// set space); the benchmark measures the software-pipeline cost
// difference (DESIGN.md ablation 3).
func BenchmarkAblationBanking(b *testing.B) {
	refs := captureRefs(b, "FIMI", 4)
	for _, banks := range []int{1, 4} {
		b.Run(fmt.Sprintf("banks=%d", banks), func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				emu, err := dragonhead.New(dragonhead.Config{
					LLC:   cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16},
					Banks: banks,
				})
				if err != nil {
					b.Fatal(err)
				}
				emu.OnMsg(fsb.Message{Kind: fsb.MsgStart})
				for _, r := range refs {
					emu.OnRef(r)
				}
				emu.Finalize()
				misses = emu.Stats().Misses
			}
			b.ReportMetric(float64(misses), "misses")
			b.ReportMetric(float64(len(refs))/1e6, "Mrefs")
		})
	}
}

// BenchmarkAblationStack compares the cost of a 7-point cache-size
// sweep done by direct simulation (7 caches on the bus) against a
// single-pass stack-distance analysis (DESIGN.md ablation 4).
func BenchmarkAblationStack(b *testing.B) {
	refs := captureRefs(b, "SNP", 4)
	b.Run("direct-7-caches", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			caches := make([]*cache.Cache, 7)
			for k := range caches {
				c, err := cache.New(cache.Config{
					Name: "LLC", Size: uint64(64<<10) << k, LineSize: 64, Assoc: 0,
				})
				if err != nil {
					b.Fatal(err)
				}
				caches[k] = c
			}
			for _, r := range refs {
				for _, c := range caches {
					c.AccessRef(r)
				}
			}
		}
	})
	b.Run("stackdist-1-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an := stackdist.New(64, 1<<20)
			for _, r := range refs {
				an.Record(r.Addr)
			}
			for k := 0; k < 7; k++ {
				an.MissesForLines((64 << 10 << k) / 64)
			}
		}
	})
}

// BenchmarkAblationPrefetch sweeps the stride prefetcher's degree on a
// streaming workload (DESIGN.md ablation 5).
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, degree := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				p := workloads.Params{Seed: 1, Scale: benchScale}
				pc := core.PlatformConfig{Threads: 1, Seed: 1}
				pf := prefetch.DefaultConfig(64)
				pf.Degree = degree
				res, _, err := core.RunHier("SHOT", p, pc, []cmpmem.HierConfig{
					cmpmem.Xeon16(1, benchScale, nil), cmpmem.Xeon16(1, benchScale, &pf)})
				if err != nil {
					b.Fatal(err)
				}
				gain = (res[0].Cycles/res[1].Cycles - 1) * 100
			}
			b.ReportMetric(gain, "gainPct")
		})
	}
}

// BenchmarkAblationReplacement sweeps the LLC replacement policy (the
// paper's FPGA shipped LRU but was reprogrammable): cyclic-reuse
// workloads show Random's thrash resistance; everything else prefers
// LRU.
func BenchmarkAblationReplacement(b *testing.B) {
	refs := captureRefs(b, "SNP", 8)
	for _, policy := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		b.Run(policy.String(), func(b *testing.B) {
			var misses uint64
			for i := 0; i < b.N; i++ {
				c, err := cache.New(cache.Config{
					Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16, Repl: policy,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range refs {
					c.AccessRef(r)
				}
				misses = c.Stats().Misses
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationSectors extends Figure 7's large-line finding to its
// bandwidth cost: at a 256 B line, full-line fills quadruple the
// traffic of 64 B lines on sparse access patterns; 64 B sectors keep
// the big-line tag reach while transferring only what is touched.
func BenchmarkAblationSectors(b *testing.B) {
	refs := captureRefs(b, "SNP", 8)
	configs := []cache.Config{
		{Name: "64B-line", Size: 2 << 20, LineSize: 64, Assoc: 16},
		{Name: "256B-line", Size: 2 << 20, LineSize: 256, Assoc: 16},
		{Name: "256B/64B-sector", Size: 2 << 20, LineSize: 256, Assoc: 16, SectorSize: 64},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			var traffic, misses uint64
			for i := 0; i < b.N; i++ {
				c, err := cache.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range refs {
					c.AccessRef(r)
				}
				traffic = c.Stats().TrafficBytes
				misses = c.Stats().Misses
			}
			b.ReportMetric(float64(traffic)/(1<<20), "trafficMB")
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkDRAMCacheStudy regenerates the conclusions' DRAM-LLC study.
func BenchmarkDRAMCacheStudy(b *testing.B) {
	var rows []cmpmem.DRAMCacheRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cmpmem.DRAMCacheStudy(nil, benchParams(), 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GainDRAMPct, "dramGainPct:"+r.Workload)
	}
}

// BenchmarkLLCOrganization regenerates the shared-vs-private LLC study.
func BenchmarkLLCOrganization(b *testing.B) {
	var rows []cmpmem.LLCOrgRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cmpmem.SharedVsPrivate(nil, benchParams(), 8, 32)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.SharedMPKI > 0 {
			b.ReportMetric(r.PrivateMPKI/r.SharedMPKI, "privOverShared:"+r.Workload)
		}
	}
}

// BenchmarkPlanFamily measures where the planner's analytic leg pays
// (DESIGN.md §5): an 8-way 64 B ladder of k sizes from 256 KB, over a
// warm capture through CombinedSweep. emulate runs the ladder as one
// Dragonhead chain at every k, oracle as one analytic pass, and auto is
// the planner's choice between them — the chain below five configs.
// Each reports wall ns per bus event; the capture is taken once per
// workload, outside the timing.
func BenchmarkPlanFamily(b *testing.B) {
	p := workloads.Params{Seed: 1, Scale: benchScale}
	pc := core.PlatformConfig{Threads: 8, Seed: 1}
	ladder := func(k int) [][]cache.Config {
		g := make([]cache.Config, k)
		for i := range g {
			g[i] = cache.Config{Name: fmt.Sprintf("LLC-%dKB", 256<<i), Size: 256 << 10 << i, LineSize: 64, Assoc: 8}
		}
		return [][]cache.Config{g}
	}
	for _, name := range []string{"MDS", "FIMI"} {
		store := tracestore.New(0, "")
		if _, _, err := core.CombinedSweep(name, p, pc, ladder(1), core.WithTraceReuse(store)); err != nil {
			b.Fatal(err)
		}
		for k := 1; k <= 7; k++ {
			for _, engine := range []core.Engine{core.EngineAuto, core.EngineEmulate, core.EngineOracle} {
				b.Run(fmt.Sprintf("%s/k=%d/%v", name, k, engine), func(b *testing.B) {
					var events uint64
					for i := 0; i < b.N; i++ {
						_, sum, err := core.CombinedSweep(name, p, pc, ladder(k), core.WithTraceReuse(store), core.WithEngine(engine))
						if err != nil {
							b.Fatal(err)
						}
						events += sum.BusEvents
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				})
			}
		}
	}
}

// captureRefs records a workload's reference stream once for the
// ablation benchmarks.
func captureRefs(b *testing.B, name string, threads int) []trace.Ref {
	b.Helper()
	var refs []trace.Ref
	_, err := core.TraceCapture(name,
		workloads.Params{Seed: 1, Scale: benchScale},
		core.PlatformConfig{Threads: threads, Seed: 1},
		func(r trace.Ref) { refs = append(refs, r) })
	if err != nil {
		b.Fatal(err)
	}
	return refs
}
