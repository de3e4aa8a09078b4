// The traceinfo subcommand: profiles of a workload's in-window
// reference stream — access mix, footprint, stride distribution, a
// windowed working-set timeline (the view of "changing application
// phase behavior" that motivated the paper's run-to-completion
// methodology) and, with -stackdist, a Mattson reuse-distance summary
// from the analytic oracle engine.
//
//	cosim -workloads SHOT -threads 8 -windows 16 -stackdist traceinfo
//
// Every report reaches the stream the way a sweep does: through the
// executor's source step; its up to three passes replay one capture.

package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cmpmem/internal/core"
	"cmpmem/internal/fsb"
	"cmpmem/internal/oracle"
	"cmpmem/internal/traceutil"
	"cmpmem/internal/workloads"
)

// traceinfo prints the reports for each selected workload.
func traceinfo(w io.Writer, names []string, p workloads.Params, threads, windows int, stackdist bool, opts []core.RunOption) error {
	pc := core.PlatformConfig{Threads: threads, Seed: p.Seed}
	for _, name := range names {
		fmt.Fprintf(w, "%s on %d cores:\n", name, threads)
		col := traceutil.NewCollector()
		if _, err := core.TraceCapture(name, p, pc, col.Add, opts...); err != nil {
			return err
		}
		s := col.Stats()
		printStats(w, s)
		if windows > 0 {
			// The window length depends on the stream's length, so
			// the timeline is a second pass (a replay, with a store).
			per := max(s.Refs/uint64(windows), 1)
			win := traceutil.NewWindower(per)
			if _, err := core.TraceCapture(name, p, pc, win.Add, opts...); err != nil {
				return err
			}
			printWindows(w, win.Windows(), per)
		}
		if stackdist {
			if err := printStackdist(w, name, p, pc, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

func printStats(w io.Writer, s traceutil.Stats) {
	fmt.Fprintf(w, "references:   %d (%.1f%% loads, %.1f%% stores)\n",
		s.Refs, pct(s.Loads, s.Refs), pct(s.Stores, s.Refs))
	fmt.Fprintf(w, "footprint:    %.2f MB (64B lines)\n", float64(s.FootprintBytes)/(1<<20))
	fmt.Fprintf(w, "sequential:   %.1f%% of same-core transitions within one line\n", 100*s.SeqFraction)
	fmt.Fprintf(w, "dom. stride:  %d bytes\n", s.DominantStride())

	cores := make([]int, 0, len(s.PerCore))
	for c := range s.PerCore {
		cores = append(cores, int(c))
	}
	sort.Ints(cores)
	fmt.Fprintf(w, "cores:        %d active\n", len(cores))
	for _, c := range cores {
		fmt.Fprintf(w, "  core %-3d %12d refs\n", c, s.PerCore[uint8(c)])
	}

	fmt.Fprintln(w, "stride histogram (power-of-two buckets):")
	var maxCount uint64
	for _, c := range s.StrideHist {
		maxCount = max(maxCount, c)
	}
	for i, c := range s.StrideHist {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(40*c/maxCount))
		fmt.Fprintf(w, "  >=%8d B %12d %s\n", 1<<i, c, bar)
	}
}

func printWindows(w io.Writer, ws []traceutil.WindowStat, per uint64) {
	fmt.Fprintf(w, "phase timeline (%d windows of ~%d refs):\n", len(ws), per)
	var maxFp uint64
	for _, win := range ws {
		maxFp = max(maxFp, win.DistinctBytes)
	}
	for i, win := range ws {
		bar := ""
		if maxFp > 0 {
			bar = strings.Repeat("#", int(40*win.DistinctBytes/maxFp))
		}
		fmt.Fprintf(w, "  w%-3d %8.2f MB touched, %4.1f%% stores %s\n",
			i, float64(win.DistinctBytes)/(1<<20), 100*win.StoreFraction, bar)
	}
}

// stackdistDepth is the exact-histogram depth in 64 B lines: reuse
// distances up to 1M lines (64 MB) are resolved exactly; deeper ones
// report as beyond-depth.
const stackdistDepth = 1 << 20

// printStackdist snoops the run with the analytic oracle engine as a
// single fully-associative set and prints the merged reuse-distance
// summary: the per-workload "how much cache is enough" view that one
// Mattson pass answers for every capacity at once. The engine sits on
// the bus like any emulator, so the run's own start/stop messages gate
// its AF window.
func printStackdist(w io.Writer, name string, p workloads.Params, pc core.PlatformConfig, opts []core.RunOption) error {
	eng, err := oracle.New(64)
	if err != nil {
		return err
	}
	if err := eng.AddGeometry(1, stackdistDepth); err != nil {
		return err
	}
	if _, err := core.Snoop(name, p, pc, []fsb.Snooper{eng}, opts...); err != nil {
		return err
	}
	s, err := eng.Summary(1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "stack distance (fully-associative LRU, 64B lines):")
	fmt.Fprintf(w, "  line requests:  %d\n", s.Requests)
	fmt.Fprintf(w, "  distinct lines: %d (%.2f MB)\n", s.Distinct, float64(s.Distinct*64)/(1<<20))
	fmt.Fprintf(w, "  cold misses:    %d (%.1f%% of requests)\n", s.Cold, pct(s.Cold, s.Requests))
	fmt.Fprintf(w, "  reuse accesses: %d\n", s.Reuse())
	for _, p := range []struct {
		label string
		dist  int
	}{{"p50", s.P50}, {"p90", s.P90}, {"p99", s.P99}} {
		if p.dist < 0 {
			fmt.Fprintf(w, "  %s reuse dist: beyond %d lines (> %.0f MB)\n",
				p.label, s.Depth, float64(uint64(s.Depth)*64)/(1<<20))
			continue
		}
		fmt.Fprintf(w, "  %s reuse dist: %d lines (%.3f MB of LRU stack)\n",
			p.label, p.dist, float64(uint64(p.dist)*64)/(1<<20))
	}
	return nil
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
