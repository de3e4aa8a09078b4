package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cmpmem/internal/core"
	"cmpmem/internal/dragonhead"
)

// asMainEnv makes the test binary behave as the bench command, so that
// runAll's re-execution of os.Executable reaches run and not the tests.
const asMainEnv = "BENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// contract is the driver-facing result line.
type contract struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  *string  `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs one smoke-size pass through the command's entry point
// and returns its exit code, result line and full record.
func runSmoke(t *testing.T, workload string, seed string, trace string) (int, contract, *record) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "record.json")
	var stdout, stderr bytes.Buffer
	// Double dashes, as the driver passes them.
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace, "-smoke", "-out", out}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %v\n%s%s", workload, err, stdout.String(), stderr.String())
	}
	if keys := sortedKeys(raw); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: result line has keys %v", workload, keys)
	}
	var c contract
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := readJSON(out, &rec); err != nil {
		t.Fatal(err)
	}
	return code, c, &rec
}

// checkLine holds a result line to the metric definitions of its pass.
func checkLine(t *testing.T, workload string, code int, c contract, owed []metricDef) {
	t.Helper()
	if code != 0 || c.Correct == nil || !*c.Correct || c.Failed == nil || *c.Failed != 0 || c.Attempted == nil || *c.Attempted < 1 {
		t.Errorf("%s: exit %d, line %+v", workload, code, c)
	}
	if len(c.Metrics) != len(owed) {
		t.Errorf("%s: %d metrics emitted, %d defined", workload, len(c.Metrics), len(owed))
	}
	for _, d := range owed {
		m, ok := c.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit == nil {
			t.Errorf("%s: metric %s missing or incomplete", workload, d.Name)
			continue
		}
		if *m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, defined as %q", workload, d.Name, *m.Unit, d.Unit)
		}
		if d.Bound > 0 && *m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s reads %v", workload, d.Name, *m.Value)
		}
	}
}

// TestWholeRun drives the one command at smoke size — every workload,
// both passes, each in its own subprocess — and then -compare on its
// result file.
func TestWholeRun(t *testing.T) {
	t.Setenv(asMainEnv, "1")
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-runs", "2", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("whole run exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var res resultFile
	if err := readJSON(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Env.HWThreads < 1 || res.Env.GoVersion == "" || res.Env.GitRev == "" {
		t.Errorf("environment not recorded: %+v", res.Env)
	}
	for _, name := range workloadNames() {
		w := res.Workloads[name]
		if w == nil || len(w.Runs) != 2 || w.Traced == nil {
			t.Fatalf("%s: incomplete in the result file: %+v", name, w)
		}
		a, b := w.Runs[0], w.Runs[1]
		if a.SimDigest == "" || a.SimDigest != b.SimDigest || a.SimDigest != w.Traced.SimDigest || !maps.Equal(a.Counts, b.Counts) {
			t.Errorf("%s: two runs of one seed differ: digests %.12s %.12s %.12s, counts %v %v", name, a.SimDigest, b.SimDigest, w.Traced.SimDigest, a.Counts, b.Counts)
		}
		for _, d := range perLayer {
			if m, ok := w.Traced.Metrics[d.Name]; !ok || m.N < 1 {
				t.Errorf("%s: traced pass lacks %s", name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "scratch-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}

	stdout.Reset()
	if code := run([]string{"-compare", out, out}, &stdout, &stderr); code != 0 {
		t.Errorf("a file compared with itself exited %d\n%s", code, stdout.String())
	}
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			if !regexp.MustCompile(name + `\s+` + d.Name + `\s.*\s(ok|unresolved)\n`).MatchString(stdout.String()) {
				t.Errorf("-compare printed no verdict for %s %s", name, d.Name)
			}
		}
	}

	// A side that fails operations the base did not is a regression
	// whatever its timings say.
	res.Workloads["live-sweep"].Runs[0].Failed++
	worse := filepath.Join(dir, "worse.json")
	if err := writeJSON(worse, res); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-compare", out, worse}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare exited %d for a side with more failed operations", code)
	}
}

// TestResultLine checks the driver's contract on every workload and
// both passes, and that the seed reaches the inputs.
func TestResultLine(t *testing.T) {
	for _, name := range workloadNames() {
		code, c, rec := runSmoke(t, name, "2", "0")
		checkLine(t, name, code, c, endToEnd)
		_, _, other := runSmoke(t, name, "3", "0")
		if rec.SimDigest == other.SimDigest || maps.Equal(rec.Counts, other.Counts) {
			t.Errorf("%s: seeds 2 and 3 gave the same simulated results (digest %.12s)", name, rec.SimDigest)
		}
	}
	if testing.Short() {
		return
	}
	for _, name := range []string{coldCapture.name, servedMix.name} {
		code, c, _ := runSmoke(t, name, "2", "1")
		checkLine(t, name, code, c, perLayer)
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the definitions the program
// emits from and to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bm.Command, []string{"go", "run", "./bench"}) || !slices.Equal(bm.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bm.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if got := bm.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: listed %+v, defined %q: %q", i, got, w.name, w.why)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, l, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: metric %+v is malformed or repeated", kind, d)
			}
			seen[d.Name] = true
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: %s has bound %v, defined %v", kind, d.Name, l.Bound, d.Bound)
			case !bounded && (l.Bound != nil || d.Bound != 0):
				t.Errorf("%s: %s carries a bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd, true)
	same("per_layer", bm.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 || endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" {
		t.Errorf("%d per-layer and %d end-to-end metrics, first %q", len(perLayer), len(endToEnd), endToEnd[0].Name)
	}
	for _, w := range allWorkloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
}

// TestMismatchIsCounted checks that a result differing from its
// reference by one miss, or from its own earlier iteration, is a failed
// operation.
func TestMismatchIsCounted(t *testing.T) {
	res := func(misses uint64) []core.LLCResult {
		r := core.LLCResult{Instructions: 1000, MPKI: float64(misses)}
		r.Stats.Accesses, r.Stats.Misses = 500, misses
		return []core.LLCResult{r}
	}
	sum := core.RunSummary{Workload: "X", Instructions: 1000}
	rec := newRecord("x", options{})
	checkSame(rec, "test", res(7), res(7), sum, sum)
	if rec.Failed != 0 || rec.Attempted != 3 {
		t.Fatalf("matching results: %d of %d operations failed", rec.Failed, rec.Attempted)
	}
	checkSame(rec, "test", res(7), res(8), sum, sum)
	if rec.Failed != 1 || len(rec.Failures) != 1 {
		t.Errorf("one differing configuration: %d failed, %q", rec.Failed, rec.Failures)
	}
	if sweepDigest(res(7), sum) == sweepDigest(res(8), sum) {
		t.Error("digest does not see a changed miss count")
	}
	withEmpty := res(7)
	withEmpty[0].Samples = []dragonhead.Sample{}
	if sweepDigest(res(7), sum) != sweepDigest(withEmpty, sum) {
		t.Error("digest distinguishes a nil sample series from an empty one")
	}
	rec.set("no.such.metric", 1)
	if rec.Failed != 2 {
		t.Error("an undefined metric name was accepted")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	mk := func(v ...float64) side {
		s := side{values: v}
		s.q1, s.med, s.q3 = quartiles(v)
		return s
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b side
		want string
	}{
		{"same", lower, mk(100, 101, 102), mk(100, 101, 102), verdictOK},
		{"within bound", lower, mk(100, 101, 102), mk(105, 106, 107), verdictOK},
		{"slower", lower, mk(100, 101, 102), mk(120, 121, 122), verdictRegression},
		{"faster", lower, mk(100, 101, 102), mk(80, 81, 82), verdictOK},
		{"lower rate", higher, mk(100, 101, 102), mk(80, 81, 82), verdictRegression},
		{"higher rate", higher, mk(100, 101, 102), mk(120, 121, 122), verdictOK},
		{"noisy and overlapping", lower, mk(80, 100, 130), mk(90, 104, 120), verdictUnresolved},
		{"noisy but every run better", lower, mk(80, 100, 130), mk(50, 60, 70), verdictOK},
	} {
		if _, got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), whose values these are.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("three values: %v %v %v", q1, med, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.95); p != 5 {
		t.Errorf("p95 of five values: %v", p)
	}
}
