package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/verify"
	"cmpmem/internal/workloads"
)

func TestRunUnknownWorkload(t *testing.T) {
	_, err := Run("BOGUS", tinyParams(), PlatformConfig{Threads: 1})
	if err == nil || !strings.Contains(err.Error(), "BOGUS") {
		t.Fatalf("unknown workload: err = %v", err)
	}
}

func TestLLCSweepRejectsBadConfig(t *testing.T) {
	bad := []cache.Config{{Name: "x", Size: 100, LineSize: 64, Assoc: 1}}
	if _, _, err := LLCSweep("PLSA", tinyParams(), PlatformConfig{Threads: 1}, bad); err == nil {
		t.Fatal("invalid LLC config accepted")
	}
}

func TestRunDefaultsToOneThread(t *testing.T) {
	sum, err := Run("PLSA", tinyParams(), PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Threads != 1 {
		t.Errorf("threads = %d, want 1", sum.Threads)
	}
}

func TestRunHierProfile(t *testing.T) {
	hres, sum, err := RunHier("PLSA", tinyParams(), PlatformConfig{Threads: 1}, []hier.Config{hier.PentiumIV(1.0 / 512)})
	if err != nil {
		t.Fatal(err)
	}
	res := hres[0]
	if res.IPC <= 0 || res.IPC > 2 {
		t.Errorf("implausible IPC %v", res.IPC)
	}
	if res.L1.Accesses == 0 {
		t.Error("hierarchy saw no accesses")
	}
	if res.Cycles <= float64(sum.Instructions)*0.5 {
		t.Errorf("cycles %v below any possible execution time", res.Cycles)
	}
}

func TestRunHierRejectsBadConfig(t *testing.T) {
	bad := hier.PentiumIV(1)
	bad.Cores = 0
	if _, _, err := RunHier("PLSA", tinyParams(), PlatformConfig{Threads: 1}, []hier.Config{hier.PentiumIV(1), bad}); err == nil {
		t.Fatal("invalid hierarchy accepted")
	}
}

// twoLevel is the independent model of a prefetch-off, L3-less
// hierarchy's private caches: per core, a reference DL1 fed that core's
// stream split into lines, and a reference DL2 fed only the DL1's
// misses. verify.BusAdapter supplies the window.
type twoLevel struct {
	l1, l2 []*verify.RefCache
	line   uint64
}

func (t *twoLevel) Access(addr mem.Addr, size uint8, kind mem.Kind, core uint8) int {
	if int(core) >= len(t.l1) {
		return 0
	}
	last := (uint64(addr) + uint64(max(size, 1)) - 1) / t.line
	for blk := uint64(addr) / t.line; blk <= last; blk++ {
		if t.l1[core].Access(mem.Addr(blk*t.line), 1, kind, core) == 1 {
			t.l2[core].Access(mem.Addr(blk*t.line), 1, kind, core)
		}
	}
	return 0
}

// TestHierCachesMatchReference holds the DL1 stage and a back end's DL2s
// to the independent reference cache, level by level.
func TestHierCachesMatchReference(t *testing.T) {
	const cores = 4
	p := tinyParams()
	hc := hier.Xeon16(cores, p.Scale, nil)
	for _, name := range []string{"SHOT", "PLSA"} {
		ref := &twoLevel{line: hc.DL1.LineSize}
		for c := 0; c < cores; c++ {
			l1, err := verify.NewRefCache(hc.DL1.Size, hc.DL1.LineSize, hc.DL1.Assoc)
			if err != nil {
				t.Fatal(err)
			}
			l2, err := verify.NewRefCache(hc.DL2.Size, hc.DL2.LineSize, hc.DL2.Assoc)
			if err != nil {
				t.Fatal(err)
			}
			ref.l1, ref.l2 = append(ref.l1, l1), append(ref.l2, l2)
		}
		observers := []fsb.Snooper{&verify.BusAdapter{Target: ref}}
		_, res, _, err := sweep(name, p, PlatformConfig{Threads: cores}, nil, []hier.Config{hc}, observers, applyOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []struct {
			name string
			got  cache.Stats
			refs []*verify.RefCache
		}{{"DL1", res[0].L1, ref.l1}, {"DL2", res[0].L2, ref.l2}} {
			var want cache.Stats
			for _, r := range level.refs {
				want.Accesses += r.Accesses()
				want.Misses += r.Misses()
				want.Loads += r.Loads()
				want.Stores += r.Stores()
				want.LoadMisses += r.LoadMisses()
			}
			got := cache.Stats{Accesses: level.got.Accesses, Misses: level.got.Misses,
				Loads: level.got.Loads, Stores: level.got.Stores, LoadMisses: level.got.LoadMisses}
			if got != want || want.Misses == 0 || want.Stores == 0 {
				t.Errorf("%s %s: hier %+v, reference %+v", name, level.name, got, want)
			}
		}
	}
}

// TestHostNoiseIsInvisible: host and simulator noise outside the
// start/stop window changes no model's answer — not the analytic leg's,
// not an emulated LLC's, not a timing hierarchy's — only the count of
// transactions the AF dropped.
func TestHostNoiseIsInvisible(t *testing.T) {
	p := workloads.Params{Seed: 3, Scale: 1.0 / 500}
	// A 64 B family just large enough for the analytic leg, and one
	// config at another line size for the emulated leg.
	llcs := []cache.Config{{Name: "128K/256B", Size: 128 << 10, LineSize: 256, Assoc: 8}}
	for i := range minAnalyticFamily {
		size, assoc := uint64(32<<10)<<i, 8<<(i%2)
		llcs = append(llcs, cache.Config{Name: fmt.Sprintf("%dK/%dw", size>>10, assoc), Size: size, LineSize: 64, Assoc: assoc})
	}
	plan, err := PlanSweep(llcs, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Analytic) != minAnalyticFamily || len(plan.Emulated) != 1 {
		t.Fatalf("plan: %d analytic, %d emulated; want %d and 1", len(plan.Analytic), len(plan.Emulated), minAnalyticFamily)
	}
	hcs := []hier.Config{hier.PentiumIV(p.Scale)}
	run := func(noise int) ([]LLCResult, []HierResult) {
		t.Helper()
		pc := PlatformConfig{Threads: 2, HostNoiseRefs: noise, Seed: 3}
		res, hres, _, err := sweep("SHOT", p, pc, [][]cache.Config{llcs}, hcs, nil, applyOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		return res, hres
	}
	quiet, quietHier := run(0)
	noisy, noisyHier := run(64)
	for i := range quiet {
		if noisy[i].Ignored == 0 {
			t.Errorf("%s: no noise reached the AF", llcs[i].Name)
		}
		noisy[i].Ignored = quiet[i].Ignored
		if !reflect.DeepEqual(quiet[i], noisy[i]) {
			t.Errorf("%s: host noise changed the result: %+v vs %+v", llcs[i].Name, quiet[i].Stats, noisy[i].Stats)
		}
	}
	if !reflect.DeepEqual(quietHier, noisyHier) {
		t.Errorf("host noise changed the hierarchy: cycles %.0f vs %.0f, DL2 misses %d vs %d",
			quietHier[0].Cycles, noisyHier[0].Cycles, quietHier[0].L2.Misses, noisyHier[0].L2.Misses)
	}
}

func TestTraceCaptureWindowed(t *testing.T) {
	var refs int
	sum, err := TraceCapture("PLSA", tinyParams(), PlatformConfig{Threads: 2, HostNoiseRefs: 7, Seed: 1},
		func(r trace.Ref) { refs++ })
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("no references captured")
	}
	// All captured references are guest memory instructions; host noise
	// outside the window must be excluded, so the count matches the
	// scheduler's memory-instruction totals exactly.
	if uint64(refs) != sum.Loads+sum.Stores {
		t.Errorf("captured %d refs, scheduler counted %d memory instructions",
			refs, sum.Loads+sum.Stores)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	r1, s1, err := LLCSweep("SNP", tinyParams(), PlatformConfig{Threads: 2, Seed: 9}, tinyLLCs())
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := LLCSweep("SNP", tinyParams(), PlatformConfig{Threads: 2, Seed: 9}, tinyLLCs())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Instructions != s2.Instructions || s1.BusEvents != s2.BusEvents {
		t.Errorf("summaries differ: %+v vs %+v", s1, s2)
	}
	for i := range r1 {
		if r1[i].Stats.Misses != r2[i].Stats.Misses {
			t.Errorf("cache %d misses differ: %d vs %d", i, r1[i].Stats.Misses, r2[i].Stats.Misses)
		}
	}
}

func TestCacheSweepConfigsScaling(t *testing.T) {
	cfgs := CacheSweepConfigs(1.0 / 16)
	if len(cfgs) != len(PaperCacheSizesMB) {
		t.Fatalf("got %d configs", len(cfgs))
	}
	// 4 MB paper at 1/16 = 256 KB simulated.
	if cfgs[0].Size != 256<<10 {
		t.Errorf("first config %d bytes, want 256KB", cfgs[0].Size)
	}
	if cfgs[6].Size != 16<<20 {
		t.Errorf("last config %d bytes, want 16MB", cfgs[6].Size)
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestCacheSizesFollowScale: every modelled cache scales by one rule,
// above the paper's scale as below it — the DL2s of Table 2 and
// Figure 8 with the LLCs of Figures 4-7.
func TestCacheSizesFollowScale(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"Xeon16 DL2", hier.Xeon16(16, 2, nil).DL2.Size, 2 << 20},
		{"PentiumIV DL2", hier.PentiumIV(2).DL2.Size, 1 << 20},
		{"Figure 4 smallest LLC", CacheSweepConfigs(2)[0].Size, 8 << 20},
		{"Figure 7 LLC", LineSweepConfigs(2)[0].Size, 64 << 20},
		// A scale <= 0 is the default, 1/16, everywhere.
		{"Xeon16 DL2 at 0", hier.Xeon16(16, 0, nil).DL2.Size, 64 << 10},
		{"PentiumIV DL2 at -1", hier.PentiumIV(-1).DL2.Size, 32 << 10},
		{"Figure 4 smallest LLC at -1", CacheSweepConfigs(-1)[0].Size, 256 << 10},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %d B, want %d B", tc.name, tc.got, tc.want)
		}
	}
}

func TestLineSweepConfigs(t *testing.T) {
	cfgs := LineSweepConfigs(1.0 / 16)
	if len(cfgs) != len(PaperLineSizes) {
		t.Fatalf("got %d configs", len(cfgs))
	}
	for i, c := range cfgs {
		if c.LineSize != PaperLineSizes[i] {
			t.Errorf("config %d line %d, want %d", i, c.LineSize, PaperLineSizes[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Size != cfgs[0].Size {
			t.Error("line sweep must hold cache size constant")
		}
	}
}

func TestTable1Complete(t *testing.T) {
	rows := Table1(nil, workloads.Params{Seed: 1, Scale: 1.0 / 512})
	if len(rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Parameters == "" || r.DataSize == "" {
			t.Errorf("%s: incomplete row", r.Workload)
		}
	}
}

// TestWorkloadSelectionBoundsTheWork: an exhibit runner given a
// selection executes those workloads and no others — rows in selection
// order, one guest execution each — and fails on a name it cannot run.
func TestWorkloadSelectionBoundsTheWork(t *testing.T) {
	p := workloads.Params{Seed: 1, Scale: 1.0 / 512}
	store := tracestore.New(0, "")
	series, err := CacheSweep([]string{"SHOT", "PLSA"}, p, 4, WithTraceReuse(store))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Name != "SHOT" || series[1].Name != "PLSA" {
		t.Errorf("series = %v, want SHOT then PLSA", series)
	}
	if n := store.Stats().Misses; n != 2 {
		t.Errorf("a two-workload selection executed %d guests, want 2", n)
	}
	if rows := Table1([]string{"SHOT"}, p); len(rows) != 1 || rows[0].Workload != "SHOT" {
		t.Errorf("Table1 selection = %v, want SHOT alone", rows)
	}
	if _, err := CacheSweep([]string{"NOSUCH"}, p, 4); err == nil {
		t.Error("an unknown workload in the selection was accepted")
	}
}

// TestExhibitsExecuteOncePerPlatform: exhibits run together execute
// each (workload, platform) once for all of them — the paper's exhibits
// plus three studies that share their platforms take 4 platforms x 2
// workloads — while a runner alone executes only its own platforms,
// and every exhibit's rows are the same either way, and exact whatever
// WithSampling says.
func TestExhibitsExecuteOncePerPlatform(t *testing.T) {
	names, p := []string{"SHOT", "PLSA"}, tinyParams()
	exhibits := []struct {
		name    string
		declare func() (any, []Exhibit)
		alone   func(opts ...RunOption) (any, error)
		runs    int64 // executions alone
	}{
		{"table2", func() (any, []Exhibit) { return Table2Exhibits(names, p) },
			func(o ...RunOption) (any, error) { return Table2(names, p, o...) }, 2},
		{"fig4", func() (any, []Exhibit) { return CacheSweepExhibits(names, p, 8) },
			func(o ...RunOption) (any, error) { return CacheSweep(names, p, 8, o...) }, 2},
		{"fig5", func() (any, []Exhibit) { return CacheSweepExhibits(names, p, 16) },
			func(o ...RunOption) (any, error) { return CacheSweep(names, p, 16, o...) }, 2},
		{"fig6", func() (any, []Exhibit) { return CacheSweepExhibits(names, p, 32) },
			func(o ...RunOption) (any, error) { return CacheSweep(names, p, 32, o...) }, 2},
		{"fig7", func() (any, []Exhibit) { return LineSweepExhibits(names, p) },
			func(o ...RunOption) (any, error) { return LineSweep(names, p, o...) }, 2},
		{"fig8", func() (any, []Exhibit) { return Fig8Exhibits(names, p) },
			func(o ...RunOption) (any, error) { return Fig8(names, p, o...) }, 4},
		{"dramcache", func() (any, []Exhibit) { return DRAMCacheExhibits(names, p, 32) },
			func(o ...RunOption) (any, error) { return DRAMCacheStudy(names, p, 32, o...) }, 2},
		{"llcorg", func() (any, []Exhibit) { return LLCOrgExhibits(names, p, 8, 0) },
			func(o ...RunOption) (any, error) { return SharedVsPrivate(names, p, 8, 0, o...) }, 2},
		{"workingsets", func() (any, []Exhibit) { return ProjectionExhibits(names, p, 16) },
			func(o ...RunOption) (any, error) { return Projection128(names, p, 16, o...) }, 2},
	}
	executions := func() (RunOption, func() int64) {
		var n atomic.Int64
		return WithProgress(func(pr Progress) {
			if pr.Phase == PhaseExecute {
				n.Add(1)
			}
		}), n.Load
	}
	rows := make([]any, len(exhibits))
	var table []Exhibit
	for i, e := range exhibits {
		var ex []Exhibit
		rows[i], ex = e.declare()
		table = append(table, ex...)
	}
	count, n := executions()
	if err := RunExhibits(table, count); err != nil {
		t.Fatal(err)
	}
	if n() != 8 {
		t.Errorf("the exhibits together executed %d times, want 8", n())
	}
	for i, e := range exhibits {
		count, n := executions()
		want, err := e.alone(count)
		if err != nil {
			t.Fatal(err)
		}
		if n() != e.runs {
			t.Errorf("%s alone executed %d times, want %d", e.name, n(), e.runs)
		}
		if !reflect.DeepEqual(rows[i], want) {
			t.Errorf("%s run with the others differs from %s alone:\n%+v\n%+v", e.name, e.name, rows[i], want)
		}
		// The exhibit runners answer exactly: the sampled tier is for
		// LLCSweep and CombinedSweep alone.
		sampled, err := e.alone(WithSampling(SamplingFast))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sampled, want) {
			t.Errorf("%s under WithSampling(SamplingFast) differs from its exact rows:\n%+v\n%+v", e.name, sampled, want)
		}
	}
}

// TestExhibitsAtSeveralParams: one table may hold rows at several
// Params. It executes once per distinct TraceKey — Table 2, Figure 4
// and the shared-vs-private study at two seeds, whose rows share the
// 8-core executions, take 2 seeds x 2 platforms x 2 workloads — and
// every row equals its runner's called alone at its own Params.
func TestExhibitsAtSeveralParams(t *testing.T) {
	names := []string{"SHOT", "PLSA"}
	reseeded := tinyParams()
	reseeded.Seed = 2
	var table []Exhibit
	var rows, want []any
	keys := map[tracestore.Key]bool{}
	for _, p := range []workloads.Params{tinyParams(), reseeded} {
		t2, ex2 := Table2Exhibits(names, p)
		f4, ex4 := CacheSweepExhibits(names, p, 8)
		org, exOrg := LLCOrgExhibits(names, p, 8, 0)
		for _, e := range slices.Concat(ex2, ex4, exOrg) {
			for _, name := range e.Workloads {
				keys[TraceKey(name, e.Params, PlatformConfig{Threads: e.Threads, Seed: e.Params.Seed})] = true
			}
		}
		table = slices.Concat(table, ex2, ex4, exOrg)
		rows = append(rows, t2, f4, org)
		alone := []func() (any, error){
			func() (any, error) { return Table2(names, p) },
			func() (any, error) { return CacheSweep(names, p, 8) },
			func() (any, error) { return SharedVsPrivate(names, p, 8, 0) },
		}
		for _, run := range alone {
			r, err := run()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	var n atomic.Int64
	count := WithProgress(func(pr Progress) {
		if pr.Phase == PhaseExecute {
			n.Add(1)
		}
	})
	if err := RunExhibits(table, count, WithParallelism(2)); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 8 || n.Load() != int64(len(keys)) {
		t.Errorf("a table with %d distinct trace keys executed %d times, want 8 and 8", len(keys), n.Load())
	}
	for i := range rows {
		if !reflect.DeepEqual(rows[i], want[i]) {
			t.Errorf("row set %d differs from its runner alone:\n%+v\n%+v", i, rows[i], want[i])
		}
	}
	if reflect.DeepEqual(rows[0], rows[3]) {
		t.Error("Table 2 at seeds 42 and 2 printed the same rows; the seed did not reach the execution")
	}
}

// TestSamplesMonotone: CB samples must be cumulative and ordered.
func TestSamplesMonotone(t *testing.T) {
	results, _, err := LLCSweep("FIMI", tinyParams(), PlatformConfig{Threads: 2, Seed: 1}, tinyLLCs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		var prev dragonhead.Sample
		for i, s := range r.Samples {
			if i > 0 && (s.Cycles <= prev.Cycles || s.Misses < prev.Misses ||
				s.Instructions < prev.Instructions) {
				t.Fatalf("%s: sample %d not monotone: %+v after %+v", r.LLC.Name, i, s, prev)
			}
			prev = s
		}
	}
}
