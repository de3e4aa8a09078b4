package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/hier"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
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

// TestHierExhibitsExecuteOncePerPlatform: the timing exhibits time all
// their hierarchy configs on one execution per (workload, threads) —
// Figure 8's prefetch off and on, the DRAM study's three L3s.
func TestHierExhibitsExecuteOncePerPlatform(t *testing.T) {
	names := []string{"SHOT", "PLSA"}
	count := func(run func(opt RunOption) error) int64 {
		t.Helper()
		var n atomic.Int64
		if err := run(WithProgress(func(pr Progress) {
			if pr.Phase == PhaseExecute {
				n.Add(1)
			}
		})); err != nil {
			t.Fatal(err)
		}
		return n.Load()
	}
	if n := count(func(opt RunOption) error { _, err := Fig8(names, tinyParams(), opt); return err }); n != 4 {
		t.Errorf("Fig8 on two workloads executed %d times, want 4 (serial and 16-thread each)", n)
	}
	if n := count(func(opt RunOption) error { _, err := DRAMCacheStudy(names, tinyParams(), 4, opt); return err }); n != 2 {
		t.Errorf("DRAMCacheStudy on two workloads executed %d times, want 2", n)
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
