package cmpmem_test

import (
	"testing"

	"cmpmem"
)

// tiny keeps public-API integration tests fast.
var tiny = cmpmem.Params{Seed: 1, Scale: 1.0 / 512}

func TestPublicAPISweep(t *testing.T) {
	llcs := []cmpmem.CacheConfig{
		{Name: "small", Size: 32 << 10, LineSize: 64, Assoc: 8},
		{Name: "large", Size: 512 << 10, LineSize: 64, Assoc: 8},
	}
	results, sum, err := cmpmem.LLCSweep("FIMI", tiny, cmpmem.SCMP(), llcs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Workload != "FIMI" || sum.Threads != 8 {
		t.Errorf("summary wrong: %+v", sum)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Stats.Misses < results[1].Stats.Misses {
		t.Errorf("smaller cache missed less: %d vs %d",
			results[0].Stats.Misses, results[1].Stats.Misses)
	}
}

func TestPublicAPIWorkloadNames(t *testing.T) {
	names := cmpmem.WorkloadNames()
	if len(names) != 8 {
		t.Fatalf("got %d workloads, want 8", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %q", n)
		}
		seen[n] = true
	}
}

func TestPublicAPIPlatformPresets(t *testing.T) {
	if cmpmem.SCMP().Threads != 8 || cmpmem.MCMP().Threads != 16 || cmpmem.LCMP().Threads != 32 {
		t.Error("platform presets do not match the paper's CMP sizes")
	}
}

func TestPublicAPIHier(t *testing.T) {
	res, sum, err := cmpmem.RunHier("PLSA", tiny, cmpmem.PlatformConfig{Threads: 1},
		[]cmpmem.HierConfig{cmpmem.PentiumIV(tiny.Scale)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].IPC <= 0 {
		t.Errorf("results = %+v", res)
	}
	if sum.Workload != "PLSA" || sum.Instructions == 0 {
		t.Errorf("summary wrong: %+v", sum)
	}
}

func TestPublicAPITraceCapture(t *testing.T) {
	count := 0
	_, err := cmpmem.TraceCapture("SHOT", tiny, cmpmem.PlatformConfig{Threads: 2},
		func(cmpmem.Ref) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("no references captured")
	}
}

func TestPublicAPITable1(t *testing.T) {
	rows := cmpmem.Table1(nil, tiny)
	if len(rows) != 8 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
}

func TestSweepConfigsExported(t *testing.T) {
	if len(cmpmem.CacheSweepConfigs(0)) != len(cmpmem.PaperCacheSizesMB) {
		t.Error("cache sweep config count mismatch")
	}
	if len(cmpmem.LineSweepConfigs(0)) != len(cmpmem.PaperLineSizes) {
		t.Error("line sweep config count mismatch")
	}
}
