package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmpmem/internal/core"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/workloads"
)

// tinyArgs keeps CLI tests fast: 1/512-scale workloads.
func tinyArgs(rest ...string) []string {
	return append([]string{"-scale", "0.002", "-seed", "3"}, rest...)
}

func TestCLISubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end runs are slow")
	}
	cases := [][]string{
		tinyArgs("table1"),
		tinyArgs("table2"),
		tinyArgs("-j", "4", "table2"),
		tinyArgs("-csv", "-workloads", "PLSA,SHOT", "fig4"),
		tinyArgs("-j", "2", "-csv", "-workloads", "PLSA,SHOT", "fig4"),
		tinyArgs("-workloads", "PLSA", "fig7"),
		tinyArgs("-workloads", "PLSA,MDS", "fig8"),
		tinyArgs("-workloads", "SHOT", "phases"),
		tinyArgs("-workloads", "PLSA,SHOT", "llcorg"),
		// Subcommands whose exhibits share executions.
		tinyArgs("-workloads", "PLSA", "fig4", "phases", "fig6", "fig7", "dramcache"),
		tinyArgs("-j", "1", "-workloads", "SHOT", "table2", "fig8"),
		// The sweep planner answers the 64 B family analytically and
		// emulates the other line sizes.
		tinyArgs("-csv", "-workloads", "PLSA", "fig4", "fig7"),
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("cosim %v: %v", args, err)
		}
	}
}

// TestCLIReplayIsOptIn: no cosim subcommand opens a trace store —
// every one executes live, so no sweep it runs has a store span
// (TestTraceinfoExecutesLive counts traceinfo's executions).
func TestCLIReplayIsOptIn(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, args := range [][]string{
		{"-csv", "-workloads", "SHOT", "fig4"},
		{"-spec", tinySpec(t), "sweep"},
		{"-workloads", "SHOT", "-threads", "2", "-windows", "4", "-stackdist", "traceinfo"},
	} {
		for _, r := range sweepManifests(t, args...) {
			if r.Trace.Find("store") != nil {
				t.Errorf("cosim %v: %s went through a trace store", args, r.Workload)
			}
		}
	}
}

func TestCLISVGOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	if err := run(tinyArgs("-workloads", "PLSA", "-svg", dir, "fig4")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty SVG written")
	}
}

// promLine matches every non-empty line of the Prometheus text format
// the handler emits: HELP/TYPE comments or "name[{labels}] value".
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+|[0-9.e+-]+[eE][0-9+-]+)$`)

// scrapeCounters fetches /metrics and returns the plain counter samples
// (labelled series excluded), validating every line's format. A dial
// error returns nil: the sweep may have finished and closed the server
// between scrapes, which the caller tolerates.
func scrapeCounters(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid Prometheus text line: %q", line)
			continue
		}
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("unparseable sample %q: %v", line, err)
			continue
		}
		out[name] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCLIMetricsEndpoint drives a sweep with -metrics-addr and scrapes
// the live endpoints from the outside while it runs: Prometheus text
// validity, counter monotonicity across scrapes, and the run manifest
// the flag implies.
func TestCLIMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	manifest := filepath.Join(t.TempDir(), "run.jsonl")
	started := time.Now()
	// Clear any listener address a previous run in this process stored,
	// so readiness below observes this run's bind, not a stale one.
	boundMetricsAddr.Store("")
	done := make(chan error, 1)
	go func() {
		// Emulators, so the Dragonhead counters below have a source:
		// Figure 7's configs at lines other than 64 B are always
		// emulated.
		done <- run(tinyArgs("-metrics-addr", "127.0.0.1:0", "-manifest", manifest, "fig7"))
	}()

	// Readiness: the listener binds synchronously before the sweep
	// starts, so poll for the address instead of sleeping a guessed
	// warm-up — scraping begins the moment the endpoint exists.
	var addr string
	for addr == "" {
		select {
		case err := <-done:
			t.Fatalf("sweep finished before the metrics listener bound (err=%v)", err)
		default:
		}
		if time.Since(started) > 2*time.Minute {
			t.Fatal("metrics listener never bound")
		}
		if a, _ := boundMetricsAddr.Load().(string); a != "" {
			addr = a
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Scrape continuously while the sweep runs. The server closes when
	// run returns, so every check happens on live mid-run responses.
	var snaps []map[string]float64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			if time.Since(started) > 2*time.Minute {
				t.Fatal("sweep did not finish")
			}
		}
		if m := scrapeCounters(t, "http://"+addr); m != nil {
			snaps = append(snaps, m)
		}
		if running {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d successful mid-run scrapes, want at least 2", len(snaps))
	}

	// Counters never decrease across successive scrapes, and the
	// simulator's own counters moved by the last one.
	for i := 1; i < len(snaps); i++ {
		for name, v1 := range snaps[i-1] {
			if v2, ok := snaps[i][name]; ok && v2 < v1 {
				t.Errorf("counter %s went backwards: %v -> %v", name, v1, v2)
			}
		}
	}
	final := snaps[len(snaps)-1]
	for _, name := range []string{"softsdv_instructions_total", "fsb_events_total", "dragonhead_cb_samples_total"} {
		if final[name] == 0 {
			t.Errorf("counter %s never incremented", name)
		}
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty manifest")
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("manifest line %d is not JSON: %v", i+1, err)
		}
		if m["kind"] != "plansweep" {
			t.Errorf("manifest line %d kind = %v, want plansweep", i+1, m["kind"])
		}
	}
}

// TestCLIVerifyMode runs the -verify suite end to end on one cheap
// workload and checks the JSON artifact: well-formed findings, all
// passing, and a non-empty check list.
func TestCLIVerifyMode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out := filepath.Join(t.TempDir(), "verify.json")
	if err := run(tinyArgs("-verify", "-workloads", "SHOT", "-verify-out", out)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Findings []struct {
			Check  string `json:"check"`
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("verify artifact is not JSON: %v", err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("verify artifact has no findings")
	}
	planner, strict := false, false
	for _, f := range rep.Findings {
		if !f.OK {
			t.Errorf("FAIL %s: %s", f.Check, f.Detail)
		}
		if f.Check == "" {
			t.Error("finding with empty check name")
		}
		planner = planner || strings.HasPrefix(f.Check, "planner/")
		strict = strict || strings.HasPrefix(f.Check, "planner-strict/")
	}
	if !planner || !strict {
		t.Errorf("verify report has planner findings %v, strict planner findings %v; want both", planner, strict)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{}); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"-verify", "-workloads", "NOPE"}); err == nil {
		t.Error("-verify with an empty workload selection accepted")
	}
	// The retired knobs are unknown flags, not ignored ones.
	for _, flag := range []string{"-batch", "-shards", "-engine", "-fold", "-trace-dir", "-sampling"} {
		if err := run([]string{flag, "2", "fig4"}); err == nil || !strings.Contains(err.Error(), "not defined: "+flag) {
			t.Errorf("cosim %s 2 fig4 = %v, want an unknown-flag error", flag, err)
		}
	}
}

func TestSelector(t *testing.T) {
	got, err := selectWorkloads("shot, plsa")
	if err != nil || !slices.Equal(got, []string{"PLSA", "SHOT"}) {
		t.Errorf("selectWorkloads = %v, %v; want [PLSA SHOT] in Table 1 order", got, err)
	}
	all, err := selectWorkloads("")
	if err != nil || len(all) != 8 {
		t.Errorf("empty selection = %v, %v; want all eight", all, err)
	}
	for _, bad := range []string{"NOSUCH", "SHOT,NOSUCH", ","} {
		_, err := selectWorkloads(bad)
		if err == nil || !strings.Contains(err.Error(), "SNP, SVM-RFE") {
			t.Errorf("selectWorkloads(%q) = %v, want an error listing the valid names", bad, err)
		}
	}
}

// sweepManifests runs one cosim invocation with a manifest and returns
// the plansweep records it wrote, one per executed workload sweep.
func sweepManifests(t *testing.T, args ...string) []traceRecord {
	t.Helper()
	manifest := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run(tinyArgs(append([]string{"-manifest", manifest}, args...)...)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := decodeTraceRecords(f, "", "plansweep")
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCLIWorkloadsSelectsTheWork: -workloads decides what executes, not
// what is printed — one selected workload is one sweep — and a name
// that selects nothing is an error naming the valid ones, before
// anything runs.
func TestCLIWorkloadsSelectsTheWork(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	recs := sweepManifests(t, "-csv", "-workloads", "SHOT", "fig4")
	if len(recs) != 1 || recs[0].Workload != "SHOT" {
		t.Errorf("-workloads SHOT fig4 ran %d sweeps (%v), want SHOT alone", len(recs), recs)
	}
	err := run(tinyArgs("-workloads", "NOSUCH", "fig4"))
	if err == nil || !strings.Contains(err.Error(), "VIEWTYPE") {
		t.Errorf("-workloads NOSUCH fig4 = %v, want an error listing the valid workloads", err)
	}
}

// TestCLIDefaultIsSerial: like cosimd, the CLI never shards an emulator.
// With four CPUs to tempt it, an emulating sweep must leave no shards
// span and move no core_shard_* counter in its manifest's snapshot.
func TestCLIDefaultIsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Only emulators have banks to shard: Figure 7's configs at lines
	// other than 64 B are always emulated.
	recs := sweepManifests(t, "-csv", "-workloads", "SHOT", "fig7")
	var folded strings.Builder
	for _, r := range recs {
		if err := telemetry.WriteFolded(&folded, r.Trace); err != nil {
			t.Fatal(err)
		}
		if r.Counters == nil || r.Counters.Counters["dragonhead_cb_samples_total"] == 0 {
			t.Fatalf("%s: manifest snapshot shows no emulator at work (%+v)", r.Workload, r.Counters)
		}
		for name, v := range r.Counters.Counters {
			if strings.HasPrefix(name, "core_shard_") && v != 0 {
				t.Errorf("an emulating cosim sweep moved %s to %d", name, v)
			}
		}
	}
	if strings.Contains(folded.String(), ";shards") {
		t.Error("an emulating cosim sweep opened a shards span")
	}
}

// captured runs cosim and returns what it wrote to stdout and stderr.
func captured(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := capturedErr(t, args...)
	if err != nil {
		t.Fatalf("cosim %v: %v", args, err)
	}
	return stdout, stderr
}

// capturedErr is captured for a run that may fail.
func capturedErr(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func(o, e *os.File) { os.Stdout, os.Stderr = o, e }(os.Stdout, os.Stderr)
		os.Stdout, os.Stderr = out, errf
		err = run(args)
	}()
	out.Close()
	errf.Close()
	o, _ := os.ReadFile(out.Name())
	e, _ := os.ReadFile(errf.Name())
	return string(o), string(e), err
}

// tinySpec writes an exact SHOT sweep spec at the tinyArgs scale and
// returns its path.
func tinySpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	body := `{"workload": "SHOT", "seed": 3, "scale": 0.002,
		"grids": [[{"size_bytes": 65536, "line_size": 64, "assoc": 8},
		           {"size_bytes": 262144, "line_size": 64, "assoc": 8}]]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLITimingLines: exhibits are timed once, by the shared run's line;
// only a command that works after it (table1, sweep, traceinfo) adds a
// line of its own.
func TestCLITimingLines(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, stderr := captured(t, tinyArgs("-workloads", "SHOT", "-spec", tinySpec(t), "fig4", "sweep")...)
	got := regexp.MustCompile(`done in [^\]]+\]`).ReplaceAllString(stderr, "done in …]")
	if want := "[exhibits done in …]\n[sweep done in …]\n"; got != want {
		t.Errorf("cosim fig4 sweep wrote to stderr\n%s\nwant\n%s", stderr, want)
	}
}

// TestCLIDefaultEngineIsAuto: like cosimd, the CLI plans every sweep —
// a default fig4 answers its grid analytically — and prints exactly
// what the same exhibits print when every config is emulated.
func TestCLIDefaultEngineIsAuto(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	stdout := func(fn func()) string {
		tmp, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer tmp.Close()
		defer func(old *os.File) { os.Stdout = old }(os.Stdout)
		os.Stdout = tmp
		fn()
		out, err := os.ReadFile(tmp.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	var recs []traceRecord
	planned := stdout(func() { recs = sweepManifests(t, "-workloads", "PLSA,SHOT", "fig4") })
	if len(recs) != 2 {
		t.Fatalf("default fig4 on two workloads wrote %d plansweep manifests", len(recs))
	}
	for _, r := range recs {
		if n, _ := strconv.Atoi(r.Trace.Attrs["analytic_configs"]); n == 0 {
			t.Errorf("%s: default fig4 answered no config analytically (attrs %v)", r.Workload, r.Trace.Attrs)
		}
	}
	names, p := []string{"PLSA", "SHOT"}, workloads.Params{Seed: 3, Scale: 0.002}
	ex, print := mpkiFigure(names, p, "fig4", false, "")
	emulated := stdout(func() {
		if err := core.RunExhibits(ex, core.WithEngine(core.EngineEmulate)); err != nil {
			t.Fatal(err)
		}
		if err := print(); err != nil {
			t.Fatal(err)
		}
	})
	if planned != emulated || planned == "" {
		t.Errorf("default fig4 prints\n%s\nemulated fig4 prints\n%s", planned, emulated)
	}
}
