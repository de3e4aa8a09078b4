package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cmpmem/internal/core"
	"cmpmem/internal/mem"
	"cmpmem/internal/server"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/trace"
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

// runTraceinfo runs traceinfo's table on its own, with -stackdist, and
// prints the reports to w.
func runTraceinfo(w io.Writer, names []string, p workloads.Params, threads, windows int, opts []core.RunOption) error {
	ex, print := traceinfo(w, names, p, threads, windows, true, opts)
	if err := core.RunExhibits(ex, opts...); err != nil {
		return err
	}
	return print()
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
		if err := runTraceinfo(&out, []string{"SHOT"}, parityParams, 8, 4, opts); err != nil {
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
	// Out-of-range inputs fail before anything executes or prints.
	for _, args := range [][]string{
		{"-threads", "-1", "traceinfo"},
		{"-threads", "0", "traceinfo"},
		{"-threads", strconv.Itoa(server.MaxThreads + 1), "traceinfo"},
		{"-windows", "-1", "traceinfo"},
		{"-scale", "-1", "fig4"},
		{"-scale", "0", "fig4"},
		{"-scale", strconv.FormatFloat(2*server.MaxScale, 'g', -1, 64), "fig4"},
	} {
		stdout, stderr, err := capturedErr(t, append([]string{"-workloads", "SHOT"}, args...)...)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("cosim %v = %v, want an error naming %s", args, err, args[0])
		}
		if stdout != "" || stderr != "" {
			t.Errorf("cosim %v printed %q to stdout and %q to stderr before failing", args, stdout, stderr)
		}
	}
}

// TestTraceinfoExecutesLive: traceinfo opens no store, and its profile
// is a row of the exhibit table, so `fig4 traceinfo` on 8 cores executes
// each workload once for both; only -windows takes a second execution,
// whose window length needs the first one's reference count.
func TestTraceinfoExecutesLive(t *testing.T) {
	names, p := []string{"PLSA", "SHOT"}, workloads.Params{Seed: 3, Scale: 0.002}
	for _, windows := range []int{0, 4} {
		var execs atomic.Int64
		opts := []core.RunOption{core.WithProgress(func(ev core.Progress) {
			if ev.Phase == core.PhaseExecute {
				execs.Add(1)
			}
		})}
		fig, _ := mpkiFigure(names, p, "fig4", false, "")
		ex, print := traceinfo(io.Discard, names, p, 8, windows, true, opts)
		if err := core.RunExhibits(append(fig, ex...), opts...); err != nil {
			t.Fatal(err)
		}
		if err := print(); err != nil {
			t.Fatal(err)
		}
		want := int64(len(names))
		if windows > 0 {
			want *= 2
		}
		if got := execs.Load(); got != want {
			t.Errorf("fig4 traceinfo -windows %d -stackdist executed %d times for %d workloads, want %d",
				windows, got, len(names), want)
		}
	}
}

// TestSummaryByHand pins the -stackdist numbers on a stream small
// enough to check on paper.
func TestSummaryByHand(t *testing.T) {
	var refs []trace.Ref
	// Touch lines 0..9 (10 cold), then re-touch line 0 (distance 9),
	// then line 9 twice (distances 1 then 0).
	for i := 0; i < 10; i++ {
		refs = append(refs, trace.Ref{Addr: mem.Addr(i * 64), Size: 1, Kind: mem.Load})
	}
	refs = append(refs,
		trace.Ref{Addr: 0, Size: 1, Kind: mem.Load},
		trace.Ref{Addr: 9 * 64, Size: 1, Kind: mem.Load},
		trace.Ref{Addr: 9 * 64, Size: 1, Kind: mem.Load})
	for _, depth := range []int{64, 2} {
		a := stackdist.New(64, depth)
		for _, r := range refs {
			recordLines(a, r)
		}
		if a.Total() != 13 || a.Cold() != 10 || a.DistinctLines() != 10 {
			t.Fatalf("depth %d: %d requests, %d cold, %d lines; want 13, 10, 10",
				depth, a.Total(), a.Cold(), a.DistinctLines())
		}
		// Reuse distances sorted: [0, 1, 9]. p50 -> rank 2 -> 1; p90/p99
		// -> rank 3 -> 9, beyond a depth of 2.
		hist, _ := a.Histogram()
		p9, line := 9, "p99 reuse dist: 9 lines"
		if depth == 2 {
			p9, line = -1, "p99 reuse dist: beyond 2 lines"
		}
		p50, p90, p99 := percentile(hist, 3, 0.50), percentile(hist, 3, 0.90), percentile(hist, 3, 0.99)
		if p50 != 1 || p90 != p9 || p99 != p9 {
			t.Fatalf("depth %d: percentiles wrong: p50=%d p90=%d p99=%d", depth, p50, p90, p99)
		}
		var out strings.Builder
		printStackdist(&out, a)
		if !strings.Contains(out.String(), line) {
			t.Errorf("depth %d: the summary lacks %q:\n%s", depth, line, out.String())
		}
	}
	// A straddler is one request per line it touches; a zero size is
	// one byte.
	a := stackdist.New(64, 64)
	recordLines(a, trace.Ref{Addr: 63, Size: 2})
	recordLines(a, trace.Ref{Addr: 128, Size: 0})
	if a.Total() != 3 || a.DistinctLines() != 3 {
		t.Errorf("straddler and zero size: %d requests to %d lines, want 3 and 3", a.Total(), a.DistinctLines())
	}
}
