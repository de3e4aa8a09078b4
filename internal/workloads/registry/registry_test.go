package registry

import (
	"fmt"
	"strings"
	"testing"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
)

func TestNamesMatchPaperOrder(t *testing.T) {
	want := []string{"SNP", "SVM-RFE", "RSEARCH", "FIMI", "PLSA", "MDS", "SHOT", "VIEWTYPE"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("name %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNewByName(t *testing.T) {
	p := workloads.Params{Seed: 1, Scale: 1.0 / 512}
	for _, name := range Names() {
		w, err := New(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name() != name {
			t.Errorf("constructed workload reports name %q, want %q", w.Name(), name)
		}
		params, size := w.Table1()
		if params == "" || size == "" {
			t.Errorf("%s: empty Table 1 fields", name)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	_, err := New("NOPE", workloads.Params{})
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("error does not name the offender: %v", err)
	}
}

func TestAllCategorized(t *testing.T) {
	// The paper's Section 4.3 sharing assignment is preserved.
	want := map[string]workloads.SharingCategory{
		"SNP":      workloads.SharedWS,
		"SVM-RFE":  workloads.SharedWS,
		"MDS":      workloads.SharedWS,
		"PLSA":     workloads.SharedWS,
		"FIMI":     workloads.MixedWS,
		"RSEARCH":  workloads.MixedWS,
		"SHOT":     workloads.PrivateWS,
		"VIEWTYPE": workloads.PrivateWS,
	}
	for _, w := range All(workloads.Params{Seed: 1}) {
		if w.Category() != want[w.Name()] {
			t.Errorf("%s category = %v, want %v", w.Name(), w.Category(), want[w.Name()])
		}
	}
}

// TestEveryWorkloadBuildsAtPaperScale builds, and never runs, every
// workload from 1/64 of the paper's footprint up to the paper's own, so
// an arena sized too small fails here rather than at `cosim -scale 1`.
// MDS stops at 1/4: one build there takes about 2 s and 0.6 GB peak RSS
// on a 2-vCPU host, and scale 1 holds four times the data.
func TestEveryWorkloadBuildsAtPaperScale(t *testing.T) {
	for _, scale := range []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1} {
		for _, name := range Names() {
			if name == "MDS" && scale > 1.0/4 {
				continue
			}
			for _, threads := range []int{1, 32} {
				if err := buildOnly(name, workloads.Params{Seed: 1, Scale: scale}, threads); err != nil {
					t.Errorf("%s at scale %g on %d threads: %v", name, scale, threads, err)
				}
			}
		}
	}
}

// buildOnly builds the named workload's guest program, turning a
// fail-loud panic (an exhausted arena) into an error.
func buildOnly(name string, p workloads.Params, threads int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	w, err := New(name, p)
	if err != nil {
		return err
	}
	sched, err := softsdv.NewScheduler(softsdv.Config{Cores: threads}, fsb.NewBus())
	if err != nil {
		return err
	}
	_, err = w.Build(mem.NewSpace(), sched, threads)
	return err
}

func TestAllReturnsFreshInstances(t *testing.T) {
	a := All(workloads.Params{Seed: 1})
	b := All(workloads.Params{Seed: 1})
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("All returned a shared instance for %s (workloads are single-use)", a[i].Name())
		}
	}
}
