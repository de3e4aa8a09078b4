package main

import (
	"fmt"
	"io"
	"slices"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	// verdictUnresolved: the runs of one side spread wider than the
	// bound and the two sides overlap, so neither "unchanged" nor
	// "regressed" can be read off the medians.
	verdictUnresolved = "unresolved"
)

// side is one result file's runs of one metric.
type side struct {
	values      []float64
	q1, med, q3 float64
}

func sideOf(runs []*record, name string) (side, bool) {
	var s side
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			s.values = append(s.values, m.Value)
		}
	}
	if len(s.values) == 0 {
		return s, false
	}
	s.q1, s.med, s.q3 = quartiles(s.values)
	return s, true
}

func (s side) spread() float64 { return (s.q3 - s.q1) / s.med }

// judge compares side b (the change) with side a (the base). worse is
// the share of a's median by which b's median is worse, negative when
// b is better.
func judge(d metricDef, a, b side) (worse float64, verdict string) {
	worse = b.med/a.med - 1
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = 1 - b.med/a.med
		better = func(x, y float64) bool { return x > y }
	}
	if max(a.spread(), b.spread()) > d.Bound {
		// Too noisy to call unless every run of b beats every run of a.
		for _, x := range b.values {
			for _, y := range a.values {
				if !better(x, y) {
					return worse, verdictUnresolved
				}
			}
		}
		return worse, verdictOK
	}
	if worse > d.Bound {
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// compareFiles prints, for every workload and end-to-end metric, both
// sides' medians with quartiles, their ratio with its base, the bound
// and a verdict. It exits non-zero on a regression, on more failed
// operations than the base had, or when a side lacks a metric.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b resultFile
	for _, f := range []struct {
		path string
		dst  *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.dst); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "A = %s (rev %s, %d runs/workload, %d hw threads)\nB = %s (rev %s, %d hw threads)\n",
		pathA, a.Env.GitRev, runsIn(a), a.Env.HWThreads, pathB, b.Env.GitRev, b.Env.HWThreads)
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Env.HWThreads != b.Env.HWThreads {
		fmt.Fprintln(stdout, "warning: the two files differ in seed, run length or hardware threads; timings are not comparable")
	}
	fmt.Fprintf(stdout, "\n%-15s %-17s %34s %34s %10s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict")
	bad := false
	for _, name := range workloadNames() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stdout, "%-15s missing from one file\n", name)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, okA := sideOf(wa.Runs, d.Name)
			sb, okB := sideOf(wb.Runs, d.Name)
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-15s %-17s missing from one file\n", name, d.Name)
				bad = true
				continue
			}
			_, verdict := judge(d, sa, sb)
			if verdict == verdictRegression {
				bad = true
			}
			fmt.Fprintf(stdout, "%-15s %-17s %12.5g [%8.5g, %8.5g] %12.5g [%8.5g, %8.5g] %9.3fx %5.0f%%  %s\n",
				name, d.Name+" "+d.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, sb.med/sa.med, 100*d.Bound, verdict)
		}
		fa, fb := failedShare(wa), failedShare(wb)
		if fb > fa {
			bad = true
		}
		fmt.Fprintf(stdout, "%-15s %-17s %34.6g %34.6g\n", name, "fail_share", fa, fb)
		if da, db := digests(wa), digests(wb); !slices.Equal(da, db) {
			fmt.Fprintf(stdout, "%-15s sim_digest differs: the simulated results changed (A %.12v, B %.12v)\n", name, da, db)
		}
	}
	if bad {
		return 1
	}
	return 0
}

func runsIn(f resultFile) int {
	for _, w := range f.Workloads {
		return len(w.Runs)
	}
	return 0
}

// failedShare is failed over attempted operations across a workload's runs.
func failedShare(w *workloadRun) float64 {
	var failed, attempted int
	for _, r := range w.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// digests is the distinct sim_digest values of a workload's runs, sorted.
func digests(w *workloadRun) []string {
	var out []string
	for _, r := range w.Runs {
		if !slices.Contains(out, r.SimDigest) {
			out = append(out, r.SimDigest)
		}
	}
	slices.Sort(out)
	return out
}
