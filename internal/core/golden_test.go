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
// regenerated through the legacy per-config emulation path, while the
// regular run produces it through the analytic planner — so the
// comparison is planner output vs checked-in emulated output, exact to
// the JSON byte.
func TestGoldenCacheSweepPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are slow")
	}
	engine := EngineAuto
	if *update {
		engine = EngineEmulate
	}
	series, err := CacheSweep(nil, goldenParams(), 8, WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "cachesweep_scmp.json", series)
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
