package core

import (
	"strings"
	"testing"

	"cmpmem/internal/workloads"
)

// TestVerifyAllTiny runs the full verification suite on two workloads
// at tiny scale and requires every check to pass. This is the tentpole
// property in-repo: the oracle, the production caches, the banked
// emulator, the replay substrate, and the telemetry accounting all
// agree exactly on real workload streams.
func TestVerifyAllTiny(t *testing.T) {
	rep, err := VerifyAll(tinyParams(), VerifyConfig{Workloads: []string{"FIMI", "SNP"}})
	if err != nil {
		t.Fatal(err)
	}
	passed, failed := rep.Counts()
	if passed == 0 {
		t.Fatal("verification ran no checks")
	}
	// Both planner legs report: the default planner over the cache and
	// line sweeps, the strict one over the cache sweep alone.
	planner, strict := 0, 0
	for _, f := range rep.Findings {
		if !f.OK {
			t.Errorf("FAIL %s: %s", f.Check, f.Detail)
		}
		switch {
		case strings.HasPrefix(f.Check, "planner-strict/"):
			strict++
		case strings.HasPrefix(f.Check, "planner/"):
			planner++
		}
	}
	grid := len(CacheSweepConfigs(tinyParams().Scale))
	if want := grid + len(LineSweepConfigs(tinyParams().Scale)); planner != want {
		t.Errorf("suite ran %d planner bit-equality checks, want %d", planner, want)
	}
	if strict != grid {
		t.Errorf("suite ran %d strict planner checks, want %d", strict, grid)
	}
	t.Logf("verify: %d checks passed, %d failed", passed, failed)
}

// TestVerifyAllUnknownWorkload checks infrastructure failures surface
// as errors, not as report findings.
func TestVerifyAllUnknownWorkload(t *testing.T) {
	_, err := VerifyAll(tinyParams(), VerifyConfig{Workloads: []string{"NO-SUCH"}})
	if err == nil || !strings.Contains(err.Error(), "NO-SUCH") {
		t.Fatalf("unknown workload not rejected: %v", err)
	}
}

// TestVerifyConfigsScale checks the oracle grid respects the scale
// knob and stays within the registered line size.
func TestVerifyConfigsScale(t *testing.T) {
	cfgs := verifyConfigs(1.0 / 512)
	if len(cfgs) != len(verifyPaperMB)*len(verifyAssocs) {
		t.Fatalf("grid has %d entries", len(cfgs))
	}
	for _, c := range cfgs {
		if c.LineSize != 64 {
			t.Errorf("%s: line size %d", c.Name, c.LineSize)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	// Larger paper sizes must not collapse below smaller ones.
	if cfgs[0].Size > cfgs[len(cfgs)-1].Size {
		t.Errorf("grid not monotone: %d .. %d", cfgs[0].Size, cfgs[len(cfgs)-1].Size)
	}
}

// TestVerifyAllDefaultsThreads checks the zero-value config picks a
// multi-threaded platform (the interleave is part of what we verify).
func TestVerifyAllDefaultsThreads(t *testing.T) {
	p := workloads.Params{Seed: 9, Scale: 1.0 / 512}
	rep, err := VerifyAll(p, VerifyConfig{Workloads: []string{"SHOT"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, f := range rep.Findings {
			if !f.OK {
				t.Errorf("FAIL %s: %s", f.Check, f.Detail)
			}
		}
	}
}
