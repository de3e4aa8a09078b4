// The traceinfo subcommand: profiles of a workload's in-window
// reference stream — access mix, footprint, stride distribution, a
// windowed working-set timeline (the view of "changing application
// phase behavior" that motivated the paper's run-to-completion
// methodology) and, with -stackdist, a Mattson reuse-distance summary.
//
//	cosim -workloads SHOT -threads 8 -windows 16 -stackdist traceinfo
//
// The profile is one more row of the exhibit table, so it shares its
// execution with every other subcommand on -threads cores. The timeline
// needs that execution's reference count for its window length, so
// -windows runs a second table after the first.

package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cmpmem/internal/core"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/trace"
	"cmpmem/internal/traceutil"
	"cmpmem/internal/workloads"
)

// stackdistDepth is the exact-histogram depth in 64 B lines: reuse
// distances up to 1M lines (64 MB) are resolved exactly; deeper ones
// report as beyond-depth.
const stackdistDepth = 1 << 20

// profile is one workload's traceinfo row.
type profile struct {
	col   *traceutil.Collector
	sd    *stackdist.Analyzer
	win   *traceutil.Windower
	stats traceutil.Stats
	wins  []traceutil.WindowStat
	reuse strings.Builder // the -stackdist section, rendered as its run ends
}

// traceinfo returns the profile row of each selected workload and the
// function that prints the reports once the table has run; with
// windows > 0 that function first runs the timeline's table, whose rows
// cut each stream into windows of its profiled reference count over
// windows.
func traceinfo(w io.Writer, names []string, p workloads.Params, threads, windows int, withStackdist bool, opts []core.RunOption) ([]core.Exhibit, func() error) {
	profs := make([]profile, len(names))
	per := func(i int) uint64 { return max(profs[i].stats.Refs/uint64(windows), 1) }
	ex := core.Exhibit{Workloads: names, Params: p, Threads: threads,
		Snoopers: func(i int) ([]fsb.Snooper, error) {
			prof := &profs[i]
			prof.col = traceutil.NewCollector()
			if withStackdist {
				prof.sd = stackdist.New(64, stackdistDepth)
			}
			return []fsb.Snooper{core.RefSnooper(func(r trace.Ref) {
				prof.col.Add(r)
				if prof.sd != nil {
					recordLines(prof.sd, r)
				}
			})}, nil
		},
		Row: func(i int, _ core.Answer) {
			prof := &profs[i]
			if prof.stats = prof.col.Stats(); prof.sd != nil {
				printStackdist(&prof.reuse, prof.sd)
			}
			prof.col, prof.sd = nil, nil
		}}
	timeline := core.Exhibit{Workloads: names, Params: p, Threads: threads,
		Snoopers: func(i int) ([]fsb.Snooper, error) {
			profs[i].win = traceutil.NewWindower(per(i))
			return []fsb.Snooper{core.RefSnooper(profs[i].win.Add)}, nil
		},
		Row: func(i int, _ core.Answer) { profs[i].wins, profs[i].win = profs[i].win.Windows(), nil }}
	return []core.Exhibit{ex}, func() error {
		if windows > 0 {
			if err := core.RunExhibits([]core.Exhibit{timeline}, opts...); err != nil {
				return err
			}
		}
		for i, name := range names {
			fmt.Fprintf(w, "%s on %d cores:\n", name, threads)
			printStats(w, profs[i].stats)
			if windows > 0 {
				printWindows(w, profs[i].wins, per(i))
			}
			io.WriteString(w, profs[i].reuse.String())
		}
		return nil
	}
}

// recordLines files one in-window transaction as the analytic engine
// regulates it: one request per 64 B line it touches.
func recordLines(a *stackdist.Analyzer, r trace.Ref) {
	first, last := r.Units(6)
	for ln := first; ln <= last; ln++ {
		a.Record(mem.Addr(ln << 6))
	}
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

// percentile returns the smallest distance d such that at least
// ceil(q*total) reuse requests had distance <= d, or -1 when that rank
// falls into the beyond-depth overflow.
func percentile(hist []uint64, total uint64, q float64) int {
	if total == 0 {
		return -1
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var cum uint64
	for d, n := range hist {
		cum += n
		if cum >= rank {
			return d
		}
	}
	return -1
}

// printStackdist prints a's reuse-distance summary. Percentiles are
// over reuse (non-cold) distances, in lines; beyond a's histogram depth
// only a bound is known.
func printStackdist(w io.Writer, a *stackdist.Analyzer) {
	hist, _ := a.Histogram() // the overflow is the reuse total's remainder
	requests, distinct, cold := a.Total(), uint64(a.DistinctLines()), a.Cold()
	fmt.Fprintln(w, "stack distance (fully-associative LRU, 64B lines):")
	fmt.Fprintf(w, "  line requests:  %d\n", requests)
	fmt.Fprintf(w, "  distinct lines: %d (%.2f MB)\n", distinct, float64(distinct*64)/(1<<20))
	fmt.Fprintf(w, "  cold misses:    %d (%.1f%% of requests)\n", cold, pct(cold, requests))
	fmt.Fprintf(w, "  reuse accesses: %d\n", requests-cold)
	for _, p := range []struct {
		label string
		q     float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		dist := percentile(hist, requests-cold, p.q)
		if dist < 0 {
			fmt.Fprintf(w, "  %s reuse dist: beyond %d lines (> %.0f MB)\n",
				p.label, len(hist), float64(len(hist)*64)/(1<<20))
			continue
		}
		fmt.Fprintf(w, "  %s reuse dist: %d lines (%.3f MB of LRU stack)\n",
			p.label, dist, float64(uint64(dist)*64)/(1<<20))
	}
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
