package core

import "testing"

// TestProjectionShapes checks the Section 4.3 projection at reduced
// scale and core count (kept fast; the full 128-core projection runs
// via `cosim proj128`): private-working-set workloads dwarf the
// shared-working-set ones, and the paper's DRAM-cache candidates are
// flagged.
func TestProjectionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("projection is too slow for -short")
	}
	rows := shapes(t).proj64
	byName := map[string]ProjectionRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.WorkingSetPaperMB <= 0 {
			t.Errorf("%s: no working set measured", r.Workload)
		}
		if r.WorkingSetPaperMB > r.DistinctPaperMB*1.01 {
			t.Errorf("%s: working set %f exceeds footprint %f",
				r.Workload, r.WorkingSetPaperMB, r.DistinctPaperMB)
		}
	}
	// PLSA's working set is tiny; SHOT's scales with cores and must be
	// far larger.
	if byName["SHOT"].WorkingSetPaperMB < 10*byName["PLSA"].WorkingSetPaperMB {
		t.Errorf("SHOT working set (%.0fMB) not far above PLSA's (%.0fMB)",
			byName["SHOT"].WorkingSetPaperMB, byName["PLSA"].WorkingSetPaperMB)
	}
	// The paper's five DRAM-cache candidates must be flagged.
	for _, name := range []string{"SNP", "FIMI", "RSEARCH", "SHOT", "VIEWTYPE"} {
		if !byName[name].WantsDRAMCache {
			t.Errorf("%s: not flagged as a DRAM-cache candidate (WS %.0fMB)",
				name, byName[name].WorkingSetPaperMB)
		}
	}
	// PLSA never needs one.
	if byName["PLSA"].WantsDRAMCache {
		t.Error("PLSA flagged as a DRAM-cache candidate")
	}
}

// TestDRAMCacheStudyShapes verifies the conclusions' claim: the
// big-working-set workloads gain substantially from a large DRAM LLC,
// while the cache-resident ones are indifferent.
func TestDRAMCacheStudyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("DRAM study is too slow for -short")
	}
	rows := shapes(t).dram
	byName := map[string]DRAMCacheRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	for _, name := range []string{"MDS", "SNP", "FIMI"} {
		if byName[name].GainDRAMPct < 10 {
			t.Errorf("%s: DRAM LLC gain only %+.1f%%, expected substantial",
				name, byName[name].GainDRAMPct)
		}
	}
	// PLSA fits its private caches: the DRAM LLC must be near-neutral.
	if g := byName["PLSA"].GainDRAMPct; g > 30 || g < -10 {
		t.Errorf("PLSA DRAM gain %+.1f%% implausible for a cache-resident workload", g)
	}
}

// TestSharedVsPrivateShapes: the shared organization must beat private
// slices for shared-working-set workloads and tie for private-working-
// set ones (DESIGN.md's related-work study).
func TestSharedVsPrivateShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows := shapes(t).llcorg
	byName := map[string]LLCOrgRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	for _, name := range []string{"SNP", "MDS"} {
		r := byName[name]
		if r.PrivateMPKI <= r.SharedMPKI {
			t.Errorf("%s: private (%.2f) not worse than shared (%.2f) for a shared working set",
				name, r.PrivateMPKI, r.SharedMPKI)
		}
	}
	for _, name := range []string{"SHOT", "VIEWTYPE"} {
		r := byName[name]
		if r.SharedMPKI == 0 {
			continue
		}
		if ratio := r.PrivateMPKI / r.SharedMPKI; ratio > 1.3 {
			t.Errorf("%s: private/shared ratio %.2f too high for private working sets", name, ratio)
		}
	}
}

func TestProjectionDefaultCores(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// cores=0 defaults to 128 and must run end to end at tiny scale.
	for _, r := range shapes(t).proj128 {
		if r.Cores != 128 {
			t.Fatalf("cores = %d, want 128", r.Cores)
		}
	}
}
