// Command benchdiff is the perf-regression gate: it compares two
// BENCH_*.json records — or a checked-in baseline against fresh
// `go test -bench` output — and fails past a configurable regression
// threshold, so the repo's performance trajectory is machine-checked
// instead of a hand-read history list.
//
// Modes:
//
//	benchdiff [-threshold f] old.json new.json
//	    Compare the numeric fields the two files share. Files with a
//	    "history" array (BENCH_sweep.json) are folded last-wins-per-key,
//	    so each metric's baseline is its most recent recorded value;
//	    flat files (BENCH_server.json) are compared directly.
//
//	benchdiff [-threshold f] -baseline BENCH_sweep.json -bench out.txt
//	    Parse `go test -bench` text output and compare each benchmark's
//	    ns/op against the matching *_ns_per_op field of the baseline's
//	    last history entry.
//
// Direction is inferred from the metric name: *_ns_per_op, *_millis*,
// *_micros*, *_seconds and *_ns are lower-is-better; *mrefs_per_s,
// *dedupe_ratio and speedup_* are higher-is-better. Everything else is
// reported but never gated. A metric regresses when it is worse than
// the baseline by more than threshold (a fraction: 0.25 allows 25%
// degradation; CI uses a deliberately generous value because runner
// hardware differs from the recorded baselines).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// newTabWriter builds the aligned table writer used for the report.
func newTabWriter(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.25, "allowed fractional regression before failing")
	baseline := fs.String("baseline", "", "baseline BENCH_*.json for -bench mode")
	benchTxt := fs.String("bench", "", "go test -bench output file (- reads stdin)")
	match := fs.String("match", "", "only compare metrics containing this substring")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	var base, fresh map[string]float64
	switch {
	case *benchTxt != "":
		if *baseline == "" {
			return 2, fmt.Errorf("-bench requires -baseline")
		}
		var err error
		if base, err = loadJSONMetrics(*baseline); err != nil {
			return 2, err
		}
		if fresh, err = loadBenchText(*benchTxt); err != nil {
			return 2, err
		}
	case fs.NArg() == 2:
		var err error
		if base, err = loadJSONMetrics(fs.Arg(0)); err != nil {
			return 2, err
		}
		if fresh, err = loadJSONMetrics(fs.Arg(1)); err != nil {
			return 2, err
		}
	default:
		return 2, fmt.Errorf("usage: benchdiff [-threshold f] old.json new.json  |  benchdiff -baseline b.json -bench out.txt")
	}

	rows, regressions := diff(base, fresh, *match, *threshold)
	if len(rows) == 0 {
		return 2, fmt.Errorf("no comparable metrics between the two inputs")
	}
	w := newTabWriter(out)
	fmt.Fprintf(w, "metric\tbaseline\tcurrent\tdelta\tverdict\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%+.1f%%\t%s\n", r.key, fmtNum(r.base), fmtNum(r.fresh), r.deltaPct, r.verdict)
	}
	w.Flush()
	if regressions > 0 {
		fmt.Fprintf(out, "\n%d metric(s) regressed beyond the %.0f%% threshold\n", regressions, *threshold*100)
		return 1, nil
	}
	fmt.Fprintf(out, "\nno regressions beyond the %.0f%% threshold\n", *threshold*100)
	return 0, nil
}

// row is one compared metric.
type row struct {
	key         string
	base, fresh float64
	deltaPct    float64
	verdict     string
}

// diff compares the shared keys and counts gated regressions.
func diff(base, fresh map[string]float64, match string, threshold float64) ([]row, int) {
	keys := make([]string, 0, len(base))
	for k := range base {
		if _, ok := fresh[k]; ok && (match == "" || strings.Contains(k, match)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var rows []row
	regressions := 0
	for _, k := range keys {
		b, f := base[k], fresh[k]
		r := row{key: k, base: b, fresh: f}
		if b != 0 {
			r.deltaPct = (f - b) / b * 100
		}
		switch direction(k) {
		case lowerBetter:
			if f > b*(1+threshold) {
				r.verdict = "REGRESSED"
				regressions++
			} else {
				r.verdict = "ok"
			}
		case higherBetter:
			if f < b/(1+threshold) {
				r.verdict = "REGRESSED"
				regressions++
			} else {
				r.verdict = "ok"
			}
		default:
			r.verdict = "info"
		}
		rows = append(rows, r)
	}
	return rows, regressions
}

type metricDirection int

const (
	ungated metricDirection = iota
	lowerBetter
	higherBetter
)

// direction classifies a metric name.
func direction(key string) metricDirection {
	k := strings.ToLower(key)
	switch {
	case strings.Contains(k, "mrefs_per_s"),
		strings.Contains(k, "dedupe_ratio"),
		strings.HasPrefix(k, "speedup"),
		strings.Contains(k, ".speedup"),
		strings.Contains(k, "_per_s"):
		return higherBetter
	case strings.Contains(k, "_ns_per_op"),
		strings.Contains(k, "_millis"),
		strings.Contains(k, "_micros"),
		strings.Contains(k, "_seconds"),
		strings.HasSuffix(k, "_ns"):
		return lowerBetter
	default:
		return ungated
	}
}

// loadJSONMetrics reads a BENCH_*.json file into flat dot-path numeric
// metrics. A top-level "history" array is folded in order with
// last-wins-per-key semantics: each metric's baseline is its most
// recently recorded value, even when the newest entry did not
// re-measure it.
func loadJSONMetrics(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	if h, ok := doc["history"].([]any); ok && len(h) > 0 {
		for _, e := range h {
			if entry, ok := e.(map[string]any); ok {
				flatten("", entry, out)
			}
		}
		return out, nil
	}
	flatten("", doc, out)
	return out, nil
}

// flatten walks nested JSON objects, collecting numeric leaves under
// dot-joined paths.
func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, c, out)
		}
	case float64:
		if prefix != "" {
			out[prefix] = t
		}
	}
}

// benchKeyMap translates `go test -bench` benchmark names into the
// BENCH_sweep.json history vocabulary, so fresh runs and the checked-in
// trajectory speak the same keys.
var benchKeyMap = map[string]string{
	"BenchmarkLLCSweepSerial":        "serial_ns_per_op",
	"BenchmarkLLCSweepParallel":      "parallel_ns_per_op",
	"BenchmarkSweepExecuteEveryTime": "execute_every_time_ns_per_op",
	"BenchmarkReplayThroughput":      "replay_backed_ns_per_op",
	"BenchmarkSweepPlanner":          "planner_ns_per_op",
	"BenchmarkSampledSweep":          "sampled_ns_per_op",
	"BenchmarkSampledSweepFirst":     "sampled_first_ns_per_op",
}

// loadBenchText parses `go test -bench` output: lines of the form
// "BenchmarkName-8   3   1846977438 ns/op [...]". Unmapped benchmarks
// keep their bare name with an _ns_per_op suffix, so they still gate
// when both sides carry them.
func loadBenchText(path string) (map[string]float64, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if fields[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		key, ok := benchKeyMap[name]
		if !ok {
			key = name + "_ns_per_op"
		}
		out[key] = ns
	}
	return out, sc.Err()
}

// fmtNum renders a metric value compactly.
func fmtNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
