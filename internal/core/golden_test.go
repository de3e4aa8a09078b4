package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cmpmem/internal/workloads"
)

// update rewrites the golden fixtures instead of comparing against
// them: go test ./internal/core/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenParams pins the fixture inputs. Changing them invalidates the
// fixtures — regenerate with -update and review the diff.
func goldenParams() workloads.Params { return workloads.Params{Seed: 3, Scale: 0.002} }

// goldenCompare marshals got and either rewrites or byte-compares the
// fixture. encoding/json emits the shortest float64 form that parses
// back exactly, so the comparison is bit-exact for every metric.
func goldenCompare(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s drifted from the golden fixture.\nIf the change is intended, regenerate with -update and review.\n got: %s\nwant: %s",
			name, data, want)
	}
}

// TestGoldenTable2 pins Table 2 (single-threaded workload
// characteristics) at the golden parameters. Any change to the workload
// kernels, the hierarchy model, the scheduler interleave, or the
// scaling rules shows up here as an exact diff.
func TestGoldenTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	rows, err := Table2(nil, goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table2.json", rows)
}

// TestGoldenFig8 pins Figure 8 (hardware-prefetch gains, serial and
// 16-thread) at the golden parameters.
func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	rows, err := Fig8(nil, goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig8.json", rows)
}

// TestGoldenCacheSweepPlanner proves the sweep planner byte-matches an
// emulation-authored fixture: with -update the Figure 4 series is
// regenerated through the emulators, while the regular run produces it
// both ways — emulated, which pins the Dragonhead's own numbers, and
// through the analytic planner — so each is compared against checked-in
// emulated output, exact to the JSON byte.
func TestGoldenCacheSweepPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	engines := []Engine{EngineEmulate, EngineAuto}
	if *update {
		engines = engines[:1]
	}
	for _, engine := range engines {
		series, err := CacheSweep(nil, goldenParams(), 8, WithEngine(engine))
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, "cachesweep_scmp.json", series)
	}
}

// TestGoldenLineSweep pins Figure 7, which no analytic engine answers:
// every line size but the modal 64 B is emulated, on banks clamped to
// the set count at the largest lines.
func TestGoldenLineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	series, err := LineSweep(nil, goldenParams())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "linesweep.json", series)
}

// TestGoldenLLCOrg pins the shared-vs-private study: one shared
// Dragonhead routed by address and one private one routed by core.
func TestGoldenLLCOrg(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	rows, err := SharedVsPrivate(nil, goldenParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "llcorg.json", rows)
}

// TestGoldenPlannerNeutralExhibits re-runs the hierarchy-based golden
// exhibits with the planner engine selected: a timing hierarchy is never
// planned (per-level timing and prefetch are outside the stack-distance
// profile), so the engine option must be a no-op there — the same
// fixtures must match byte for byte.
func TestGoldenPlannerNeutralExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	if *update {
		t.Skip("fixtures are authored by the emulation-path tests")
	}
	rows2, err := Table2(nil, goldenParams(), WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table2.json", rows2)
	rows8, err := Fig8(nil, goldenParams(), WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig8.json", rows8)
}
