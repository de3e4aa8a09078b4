package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpmem/internal/core"
	"cmpmem/internal/server"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
)

// The parity fixture: SHOT on 8 cores, seed 1, scale 1/64. The pinned
// numbers below were printed, at the last commit that had them, by the
// offline tool-chain this subcommand and `cosim sweep` replaced:
//
//	tracegen -workload SHOT -threads 8 -seed 1 -scale 0.015625 -o shot.trace
//	traceinfo -windows 4 -stackdist shot.trace
//	cachesim -size 64KB,256KB shot.trace
var parityParams = workloads.Params{Seed: 1, Scale: 1.0 / 64}

// pinned reads one of those tools' verbatim output from testdata.
func pinned(t *testing.T, file string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// paritySources runs fn three ways — live, through a fresh store that
// spills to a directory, and through a second store on that directory
// (a later process: the capture comes off disk) — and checks that only
// the first store executed the guest.
func paritySources(t *testing.T, fn func(source string, opts []core.RunOption)) {
	t.Helper()
	fn("live", nil)
	dir := t.TempDir()
	first := tracestore.New(0, dir)
	fn("captured", []core.RunOption{core.WithTraceReuse(first)})
	if st := first.Stats(); st.Misses != 1 {
		t.Errorf("capturing store: %d guest executions, want 1 (%+v)", st.Misses, st)
	}
	second := tracestore.New(0, dir)
	fn("from disk", []core.RunOption{core.WithTraceReuse(second)})
	if st := second.Stats(); st.Misses != 0 || st.DiskHits != 1 {
		t.Errorf("store on the spilled directory: %d guest executions, %d disk hits, want 0 and 1 (%+v)",
			st.Misses, st.DiskHits, st)
	}
}

// TestTraceinfoParity: `cosim traceinfo` reproduces every number the
// traceinfo tool printed for the fixture, whichever way the stream is
// sourced.
func TestTraceinfoParity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	want := "SHOT on 8 cores:\n" + pinned(t, "traceinfo_shot8.txt")
	paritySources(t, func(source string, opts []core.RunOption) {
		var out bytes.Buffer
		if err := traceinfo(&out, []string{"SHOT"}, parityParams, 8, 4, true, opts); err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if out.String() != want {
			t.Errorf("%s: traceinfo output diverges from the pinned report:\n%s\nwant:\n%s", source, out.String(), want)
		}
	})
}

// TestSweepParity: `cosim -spec f sweep` reproduces what `tracegen |
// cachesim -size 64KB,256KB` reported for the fixture (16-way, 64 B
// lines: cachesim's defaults), with identical result bytes whichever
// way the stream is sourced.
func TestSweepParity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"workload": "SHOT", "seed": 1, "scale": 0.015625,
		"platform": {"threads": 8, "seed": 1},
		"grids": [[{"size_bytes": 65536, "line_size": 64, "assoc": 16},
		           {"size_bytes": 262144, "line_size": 64, "assoc": 16}]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := pinned(t, "cachesim_shot8.txt")
	var first []byte
	paritySources(t, func(source string, opts []core.RunOption) {
		var out bytes.Buffer
		if err := sweepCmd(&out, spec, opts); err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if first == nil {
			first = out.Bytes()
		} else if !bytes.Equal(out.Bytes(), first) {
			t.Errorf("%s: result bytes differ from the live run's", source)
		}
		var res server.SweepResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		// cachesim's report, in cachesim's format, from the sweep result.
		var got strings.Builder
		fmt.Fprintf(&got, "%d references\n", res.Summary.Loads+res.Summary.Stores)
		fmt.Fprintf(&got, "%-10s %12s %12s %10s %12s %12s\n",
			"cache", "accesses", "misses", "missrate", "writebacks", "traffic(MB)")
		for i, name := range []string{"64KB", "256KB"} {
			s := res.Grids[0][i].Stats
			fmt.Fprintf(&got, "%-10s %12d %12d %9.2f%% %12d %12.2f\n",
				name, s.Accesses, s.Misses, 100*s.MissRate(), s.Writebacks,
				float64(s.TrafficBytes)/(1<<20))
		}
		if got.String() != want {
			t.Errorf("%s: sweep result diverges from cachesim's report:\n%s\nwant:\n%s", source, got.String(), want)
		}
	})
}

func TestTraceinfoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if err := run(tinyArgs("-workloads", "PLSA,SHOT", "-threads", "2", "traceinfo")); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-workloads", "SHOT", "-threads", "2",
		"-windows", "4", "-stackdist", "traceinfo")); err != nil {
		t.Fatal(err)
	}
}

func TestTraceinfoErrors(t *testing.T) {
	if err := run(tinyArgs("-workloads", "NOPE", "traceinfo")); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(tinyArgs("-workloads", "SHOT", "-threads", "-1", "traceinfo")); err == nil {
		t.Error("negative -threads accepted")
	}
}
