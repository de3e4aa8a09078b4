// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each benchmark iteration executes the full experiment at
// benchScale (1/64 of paper footprints — a quarter of the interactive
// harness scale — so `go test -bench=.` completes in minutes) and
// reports the reproduced quantities as custom metrics alongside the
// timing, so the bench output doubles as a miniature results table.
//
// Regenerate the full-resolution exhibits with `go run ./cmd/cosim all`.
package cmpmem_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"cmpmem"
	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/telemetry"
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
		rows := cmpmem.Table1(benchParams())
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
		rows, err = cmpmem.Table2(benchParams())
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
		series, err = cmpmem.CacheSweep(benchParams(), cores)
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
		series, err = cmpmem.LineSweep(benchParams())
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
		rows, err = cmpmem.Fig8(benchParams())
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
				off, err := core.RunHier("SHOT", p, pc, cmpmem.Xeon16(1, benchScale, nil))
				if err != nil {
					b.Fatal(err)
				}
				pf := prefetch.DefaultConfig(64)
				pf.Degree = degree
				on, err := core.RunHier("SHOT", p, pc, cmpmem.Xeon16(1, benchScale, &pf))
				if err != nil {
					b.Fatal(err)
				}
				gain = (off.Cycles/on.Cycles - 1) * 100
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
		rows, err = cmpmem.DRAMCacheStudy(benchParams(), 16)
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
		rows, err = cmpmem.SharedVsPrivate(benchParams(), 8, 32)
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

// BenchmarkAblationCoherence measures what the paper's coherence-free
// shared-LLC methodology hides: the cycle cost of private-cache
// invalidations for a shared-working-set workload.
func BenchmarkAblationCoherence(b *testing.B) {
	for _, coherent := range []bool{false, true} {
		b.Run(fmt.Sprintf("coherent=%v", coherent), func(b *testing.B) {
			var cycles float64
			var invs uint64
			for i := 0; i < b.N; i++ {
				hc := cmpmem.Xeon16(8, benchScale, nil)
				hc.Coherent = coherent
				res, err := core.RunHier("SVM-RFE",
					workloads.Params{Seed: 1, Scale: benchScale},
					core.PlatformConfig{Threads: 8, Seed: 1}, hc)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
				invs = res.Invalidations
			}
			b.ReportMetric(cycles/1e6, "Mcycles")
			b.ReportMetric(float64(invs), "invalidations")
		})
	}
}

// sweepBenchLLCs is an 8-point LLC ladder (64 KB to 8 MB) for the
// serial-vs-parallel sweep benchmarks: enough emulators that the
// batched fan-out's per-snooper workers dominate the wall-clock
// difference on a multicore host.
func sweepBenchLLCs() []cache.Config {
	out := make([]cache.Config, 8)
	for i := range out {
		size := uint64(64<<10) << i
		out[i] = cache.Config{
			Name:     fmt.Sprintf("LLC-%dKB", size>>10),
			Size:     size,
			LineSize: 64,
			Assoc:    16,
		}
	}
	return out
}

// benchLLCSweep runs one workload execution driving all 8 emulated LLC
// configurations; opts select synchronous vs batched-parallel delivery.
// hw_threads records how many hardware threads the host actually
// offers: on a 1-thread container every parallel-delivery "speedup" is
// pure handoff overhead, and the metric makes that legible instead of
// looking like a regression.
func benchLLCSweep(b *testing.B, opts ...cmpmem.RunOption) {
	b.ReportMetric(float64(runtime.NumCPU()), "hw_threads")
	var misses uint64
	for i := 0; i < b.N; i++ {
		results, _, err := cmpmem.LLCSweep("FIMI", benchParams(), cmpmem.SCMP(), sweepBenchLLCs(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		misses = 0
		for _, r := range results {
			misses += r.Stats.Misses
		}
	}
	b.ReportMetric(float64(misses), "misses")
}

// BenchmarkLLCSweepSerial delivers every bus event to all 8 emulators
// synchronously on the execution goroutine (the seed behavior).
func BenchmarkLLCSweepSerial(b *testing.B) {
	benchLLCSweep(b, cmpmem.WithParallelism(1))
}

// BenchmarkLLCSweepParallel uses the batched per-snooper fan-out: the
// execution engine publishes batches and each emulator drains its own
// channel on a dedicated worker. Statistics are bit-identical to the
// serial benchmark (the equivalence test enforces it); only wall-clock
// changes. Results are tracked in BENCH_sweep.json.
func BenchmarkLLCSweepParallel(b *testing.B) {
	benchLLCSweep(b, cmpmem.WithBusBatch(0))
}

// BenchmarkLLCSweepParallelTelemetry is BenchmarkLLCSweepParallel with
// the full telemetry substrate attached — live counter registry, span
// tree, and a manifest per iteration (discarded). The delta against the
// uninstrumented benchmark is the enabled-path overhead; the disabled
// path (no WithTelemetry) is exercised by every other benchmark in this
// file and must stay within noise of the seed.
func BenchmarkLLCSweepParallelTelemetry(b *testing.B) {
	sink := cmpmem.NewTelemetrySink(telemetry.NewRegistry(),
		telemetry.NewManifestWriter(io.Discard), nil)
	benchLLCSweep(b, cmpmem.WithBusBatch(0), cmpmem.WithTelemetry(sink))
}

// BenchmarkEngine measures raw co-simulation throughput: simulated
// instructions per second through the full SoftSDV -> FSB -> Dragonhead
// path (the paper's platform ran at 30-50 MIPS).
func BenchmarkEngine(b *testing.B) {
	var inst uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc := cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16}
		_, sum, err := core.LLCSweep("PLSA",
			workloads.Params{Seed: 1, Scale: benchScale},
			core.PlatformConfig{Threads: 8, Seed: 1},
			[]cache.Config{llc})
		if err != nil {
			b.Fatal(err)
		}
		inst += sum.Instructions
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(inst)/sec/1e6, "MIPS")
	}
}

// captureRefs records a workload's reference stream once for replay
// benchmarks.
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

// BenchmarkCacheAccess measures the touchLine hot path (sentinel-tag
// lookup, MRU fast path) on a real captured reference stream.
func BenchmarkCacheAccess(b *testing.B) {
	refs := captureRefs(b, "FIMI", 8)
	c, err := cache.New(cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range refs {
			c.AccessRef(r)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(len(refs))/sec/1e6, "Mrefs/s")
	}
}

// BenchmarkCacheAccessBatch measures the data-oriented batch entry:
// the same captured stream as BenchmarkCacheAccess applied 64 refs per
// AccessBatch call, so per-ref counter read-modify-writes collapse into
// register accumulators flushed once per batch.
func BenchmarkCacheAccessBatch(b *testing.B) {
	refs := captureRefs(b, "FIMI", 8)
	c, err := cache.New(cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(refs); off += batch {
			end := off + batch
			if end > len(refs) {
				end = len(refs)
			}
			c.AccessBatch(refs[off:end])
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(len(refs))/sec/1e6, "Mrefs/s")
	}
}

// BenchmarkShardedRun replays one captured stream through the
// Dragonhead emulator with the intra-run sharded execution path at 1,
// 2, and 4 bank shards. Statistics are bit-identical across the legs
// (TestSerialShardedEquivalence enforces it); the wall-clock difference
// is the sharding payoff — or, on a 1-hardware-thread host (see the
// hw_threads metric), the pure handoff overhead.
func BenchmarkShardedRun(b *testing.B) {
	refs := captureRefs(b, "FIMI", 8)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(runtime.NumCPU()), "hw_threads")
			var misses uint64
			for i := 0; i < b.N; i++ {
				emu, err := dragonhead.New(dragonhead.Config{
					LLC:    cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16},
					Shards: shards,
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
			b.StopTimer()
			b.ReportMetric(float64(misses), "misses")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)*float64(len(refs))/sec/1e6, "Mrefs/s")
			}
		})
	}
}

// BenchmarkShardedRunTraced is the 4-shard run with a request span
// attached: shard workers accumulate per-worker busy time on the bus
// delivery hot path and attach it post-hoc as concurrent shard spans.
// The delta against BenchmarkShardedRun/shards=4 is the traced-path
// overhead; untraced runs pay one predictable branch per delivery.
func BenchmarkShardedRunTraced(b *testing.B) {
	refs := captureRefs(b, "FIMI", 8)
	var misses uint64
	var root *telemetry.Span
	for i := 0; i < b.N; i++ {
		root = telemetry.StartSpan("request")
		emu, err := dragonhead.New(dragonhead.Config{
			LLC:    cache.Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Assoc: 16},
			Shards: 4,
			Trace:  root,
		})
		if err != nil {
			b.Fatal(err)
		}
		emu.OnMsg(fsb.Message{Kind: fsb.MsgStart})
		for _, r := range refs {
			emu.OnRef(r)
		}
		emu.Finalize()
		root.End()
		misses = emu.Stats().Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(misses), "misses")
	if root.Find("shards") == nil {
		b.Fatal("traced run attached no shard spans")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(len(refs))/sec/1e6, "Mrefs/s")
	}
}

// benchExperimentFlow is the paper's own operational flow on one
// workload: the Dragonhead board holds ONE cache configuration at a
// time, so the Figure 4 cache-size sweep plus the Figure 7 line-size
// sweep is 14 independent experiments, each historically re-running the
// workload (reprogram, re-execute, re-snoop). With the trace substrate
// the same 14 experiments execute the workload once and replay the
// memoized stream 13 times. MDS is the flow workload: the heaviest
// compute per bus event (Table 2's CPU-bound extreme), i.e. the
// workload where re-execution hurts the most.
func benchExperimentFlow(b *testing.B, opts ...cmpmem.RunOption) {
	configs := append(cmpmem.CacheSweepConfigs(benchScale), cmpmem.LineSweepConfigs(benchScale)...)
	var misses uint64
	for i := 0; i < b.N; i++ {
		misses = 0
		for _, cfg := range configs {
			results, _, err := cmpmem.LLCSweep("MDS", benchParams(), cmpmem.SCMP(),
				[]cache.Config{cfg}, opts...)
			if err != nil {
				b.Fatal(err)
			}
			misses += results[0].Stats.Misses
		}
	}
	b.ReportMetric(float64(misses), "misses")
	b.ReportMetric(float64(len(configs)), "experiments")
}

// benchReplayStore is pre-warmed once so BenchmarkReplayThroughput
// measures the steady state of a memoized session: every experiment
// serves from the captured stream. The one-time capture cost amortizes
// to zero as experiments accumulate.
var benchReplayStore *tracestore.Store

func warmReplayStore(b *testing.B) *tracestore.Store {
	b.Helper()
	if benchReplayStore == nil {
		benchReplayStore = tracestore.New(0, "")
		cfg := cmpmem.CacheSweepConfigs(benchScale)[0]
		if _, _, err := cmpmem.LLCSweep("MDS", benchParams(), cmpmem.SCMP(),
			[]cache.Config{cfg}, cmpmem.WithTraceReuse(benchReplayStore)); err != nil {
			b.Fatal(err)
		}
	}
	return benchReplayStore
}

// BenchmarkReplayThroughput: the 14-experiment CacheSweep + LineSweep
// flow served from the memoized trace — no workload execution, no
// scheduler, just the zero-alloc replay engine decoding the v2 stream
// into the emulator. Compare against BenchmarkSweepExecuteEveryTime in
// BENCH_sweep.json.
func BenchmarkReplayThroughput(b *testing.B) {
	store := warmReplayStore(b)
	b.ResetTimer()
	benchExperimentFlow(b, cmpmem.WithTraceReuse(store))
}

// BenchmarkSweepExecuteEveryTime is the pre-substrate behavior: every
// experiment re-executes the workload from scratch.
func BenchmarkSweepExecuteEveryTime(b *testing.B) {
	benchExperimentFlow(b)
}

// BenchmarkSweepPlanner is the same 14-experiment MDS flow compiled by
// the sweep planner: the 8 oracle-answerable 64 B configs (one of them
// a geometry shared between the two sub-sweeps) collapse into a single
// analytic stack-distance pass, the 6 other-line-size configs ride the
// same pass as emulators, so the whole flow costs ONE replay of the
// memoized stream instead of 14. Results are bit-identical to the
// replay benchmark (the planner equivalence tests and `cosim -verify`
// enforce it); compare ns/op against BenchmarkReplayThroughput and
// BenchmarkSweepExecuteEveryTime in BENCH_sweep.json.
func BenchmarkSweepPlanner(b *testing.B) {
	store := warmReplayStore(b)
	grids := [][]cache.Config{
		cmpmem.CacheSweepConfigs(benchScale),
		cmpmem.LineSweepConfigs(benchScale),
	}
	plan, err := core.PlanSweep(append(append([]cache.Config{}, grids[0]...), grids[1]...), core.EngineAuto)
	if err != nil {
		b.Fatal(err)
	}
	var misses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := cmpmem.CombinedSweep("MDS", benchParams(), cmpmem.SCMP(), grids,
			cmpmem.WithTraceReuse(store))
		if err != nil {
			b.Fatal(err)
		}
		misses = 0
		for _, grid := range res {
			for _, r := range grid {
				misses += r.Stats.Misses
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(misses), "misses")
	b.ReportMetric(float64(len(grids[0])+len(grids[1])), "experiments")
	b.ReportMetric(float64(plan.Passes()), "tracePasses")
}

// sampledFlowGrids is the 14-experiment MDS flow the sampled
// benchmarks answer.
func sampledFlowGrids() [][]cache.Config {
	return [][]cache.Config{
		cmpmem.CacheSweepConfigs(benchScale),
		cmpmem.LineSweepConfigs(benchScale),
	}
}

// benchSampledSweep times b.N fast-tier sweeps of the flow, each over
// the store that stores(i) hands it (called off the clock).
func benchSampledSweep(b *testing.B, stores func(i int) *tracestore.Store) {
	grids := sampledFlowGrids()
	var estMisses, replayed, total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := stores(i)
		b.StartTimer()
		res, _, err := cmpmem.CombinedSweep("MDS", benchParams(), cmpmem.SCMP(), grids,
			cmpmem.WithTraceReuse(store), cmpmem.WithSampling(cmpmem.SamplingFast))
		if err != nil {
			b.Fatal(err)
		}
		estMisses = 0
		for _, grid := range res {
			for _, r := range grid {
				estMisses += r.Stats.Misses
				if r.Sampling == nil {
					b.Fatal("sampled sweep attached no SamplingEstimate")
				}
				replayed, total = r.Sampling.ReplayedRefs, r.Sampling.TotalRefs
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(estMisses), "estMisses")
	b.ReportMetric(float64(len(grids[0])+len(grids[1])), "experiments")
	b.ReportMetric(float64(runtime.NumCPU()), "hw_threads")
	if total > 0 {
		b.ReportMetric(float64(replayed)/float64(total), "replayedFrac")
	}
}

// BenchmarkSampledSweep is the same 14-experiment MDS flow in the
// approximate fast tier (WithSampling), on a capture whose sample plan
// is already memoized — the steady state of a session or a cosimd
// store, where only the first sampled sweep of a capture fingerprints
// it (BenchmarkSampledSweepFirst). Only the representative windows are
// replayed per canonical geometry; every result is an extrapolated
// estimate carrying its own confidence interval. replayedFrac is the
// fast tier's acceptance budget — it must stay at or below 0.25 of the
// full trace (TestSampledSweepReplayFraction pins it) — and the
// ns/op delta against BenchmarkSweepPlanner in BENCH_sweep.json is the
// accuracy-for-time trade the tier buys.
func BenchmarkSampledSweep(b *testing.B) {
	store := warmReplayStore(b)
	if _, _, err := cmpmem.CombinedSweep("MDS", benchParams(), cmpmem.SCMP(), sampledFlowGrids()[:1],
		cmpmem.WithTraceReuse(store), cmpmem.WithSampling(cmpmem.SamplingFast)); err != nil {
		b.Fatal(err)
	}
	benchSampledSweep(b, func(int) *tracestore.Store { return store })
}

// BenchmarkSampledSweepFirst is the first sampled sweep of a capture:
// fingerprint pass and clustering included. Every iteration gets a
// fresh Trace over the same encoded stream (no plan on it yet), built
// off the clock, so the one-time cost stays measured now that
// BenchmarkSampledSweep no longer pays it.
func BenchmarkSampledSweepFirst(b *testing.B) {
	key := core.TraceKey("MDS", benchParams(), cmpmem.SCMP())
	warm, err := warmReplayStore(b).Do(key, func() (*tracestore.Trace, error) {
		return nil, fmt.Errorf("the warm store lost its capture")
	})
	if err != nil {
		b.Fatal(err)
	}
	benchSampledSweep(b, func(int) *tracestore.Store {
		store := tracestore.New(0, "")
		if _, err := store.Do(key, func() (*tracestore.Trace, error) {
			return tracestore.NewTrace(warm.Summary, warm.Encoded()), nil
		}); err != nil {
			b.Fatal(err)
		}
		return store
	})
}
