package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"cmpmem/internal/telemetry"
	"cmpmem/internal/workloads"
)

// TestVerifyAllTiny runs the full verification suite on two workloads
// at tiny scale and requires every check to pass. This is the tentpole
// property in-repo: the oracle, the production caches, the banked
// emulator, the replay substrate, and the telemetry accounting all
// agree exactly on real workload streams.
//
// It also pins the suite's passes through the progress hook VerifyAll
// hands every leg. Per workload: one capture, then ONE replay that
// answers the oracle differential and bank neutrality together, the
// sampled tier's plan and measure, and two live delivery runs. On the
// first workload only: the planner's emulated reference is one
// CombinedSweep beside its two planned legs (three replays), the
// conservation sweep executes live, and the fault legs capture three
// times (clean spill, corrupt spill, failed open), revive one spill
// from disk, and execute the lossy run live.
func TestVerifyAllTiny(t *testing.T) {
	var mu sync.Mutex
	phases := map[string]int{}
	count := WithProgress(func(pr Progress) {
		if pr.Phase != PhaseConfig {
			mu.Lock()
			phases[pr.Phase]++
			mu.Unlock()
		}
	})
	names := []string{"FIMI", "SNP"}
	rep, err := VerifyAll(names, tinyParams(), WithParallelism(2), count)
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
	n := len(names)
	want := map[string]int{
		PhaseCapture: n + 3,
		PhaseReplay:  2*n + 3 + 1,
		PhaseSample:  n,
		PhaseExecute: 2*n + 1 + 1,
	}
	for phase, w := range want {
		if phases[phase] != w {
			t.Errorf("%d %s phases, want %d (all: %v)", phases[phase], phase, w, phases)
		}
	}
	if len(phases) != len(want) {
		t.Errorf("phases %v, want only %v", phases, want)
	}
	t.Logf("verify: %d checks passed, %d failed", passed, failed)
}

// TestVerifyAllUnknownWorkload checks infrastructure failures surface
// as errors, not as report findings.
func TestVerifyAllUnknownWorkload(t *testing.T) {
	_, err := VerifyAll([]string{"NO-SUCH"}, tinyParams())
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

// TestVerifyAllDefaultsThreads checks the suite verifies a
// multi-threaded platform (the interleave is part of what it verifies):
// every sweep it reports through the caller's telemetry ran on
// verifyThreads cores. Two workloads on a serial and a two-worker pool
// must give the same report, byte for byte.
func TestVerifyAllDefaultsThreads(t *testing.T) {
	p := workloads.Params{Seed: 9, Scale: 1.0 / 512}
	names := []string{"SHOT", "PLSA"}
	var man bytes.Buffer
	sink := telemetry.NewSink(telemetry.NewRegistry(), telemetry.NewManifestWriter(&man), nil)
	var reports [2]bytes.Buffer
	for j := range reports {
		rep, err := VerifyAll(names, p, WithParallelism(j+1), WithTelemetry(sink))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Findings {
			if !f.OK {
				t.Errorf("FAIL %s: %s", f.Check, f.Detail)
			}
		}
		if err := rep.WriteJSON(&reports[j]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Error("the report at -j 2 differs from the report at -j 1")
	}
	sweeps := 0
	for sc := bufio.NewScanner(&man); sc.Scan(); sweeps++ {
		var m telemetry.Manifest
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m.Threads != verifyThreads {
			t.Errorf("%s sweep of %s ran on %d cores, want %d", m.Kind, m.Workload, m.Threads, verifyThreads)
		}
	}
	if sweeps == 0 {
		t.Error("no sweep reported through the caller's telemetry")
	}
}
