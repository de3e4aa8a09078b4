// Command bench is the repository's benchmark: six sweep workloads that
// each stress a different layer of the co-simulation pipeline, four
// end-to-end metrics every workload reports, and a traced pass that
// times every layer through its public API over the workload's own
// capture. See README.md for what each number means and how to compare
// two commits.
//
//	go run ./bench                         all workloads, both passes -> bench/out/result.json
//	go run ./bench -workload live-sweep    one workload in this process (what the driver runs)
//	go run ./bench -compare A.json B.json  verdict per (workload, end-to-end metric)
//
// With -workload the last line of standard output is one JSON object
// with exactly the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"cmpmem/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	runs     int
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with the result line (default: all six, both passes, one subprocess each)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: datasets, platform noise source, and the served spec order all derive from it")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of one workload's timed region")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass: spans on, layer probes, per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", "", "result file (default bench/out/result.json for a whole run; none for -workload)")
	fs.IntVar(&o.runs, "runs", 3, "timed runs per workload in a whole run; -compare reads their medians and quartiles")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and one iteration: checks that everything runs, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case o.workload != "":
		return runOne(o, stdout, stderr)
	default:
		return runAll(o, stdout, stderr)
	}
}

// runOne runs one pass of one workload in this process.
func runOne(o options, stdout, stderr io.Writer) int {
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rec := execute(w, o)
	rec.print(stdout)
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.contractLine())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// execute runs the pass o selects and seals the record: every metric
// the pass owes must be present, so a probe that silently drops out is
// a failed run, not a shorter table.
func execute(w *workload, o options) *record {
	sz := fullSize
	if o.smoke {
		sz = smokeSize
	}
	rec := newRecord(w.name, o)
	rc := &runCtx{opts: o, size: sz, rec: rec, outDir: outDirFor(o)}
	owed := endToEnd
	if o.trace {
		owed = perLayer
		rc.root = telemetry.StartSpan("bench/" + w.name)
		w.traced(rc)
		rc.root.End()
		if err := writeJSON(filepath.Join(rc.outDir, "trace-"+w.name+".json"), rc.root); err != nil {
			rec.failf("writing span file: %v", err)
		}
	} else {
		w.timed(rc)
	}
	for _, d := range owed {
		if _, ok := rec.Metrics[d.Name]; !ok {
			rec.failf("metric %s was not measured", d.Name)
		}
	}
	rec.Correct = rec.Failed == 0
	return rec
}

// outDirFor is where span files and scratch directories go: beside the
// result file when one is named, else bench/out under the working
// directory — inside the checkout either way.
func outDirFor(o options) string {
	if o.out != "" {
		return filepath.Dir(o.out)
	}
	return filepath.Join("bench", "out")
}

// environment is what a reader needs to place the numbers.
type environment struct {
	HWThreads  int    `json:"hw_threads"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
}

func currentEnvironment() environment {
	rev := telemetry.GitRev()
	if rev == "" {
		rev = "unknown"
	}
	return environment{
		HWThreads:  runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitRev:     rev,
	}
}

// resultFile is what a whole run writes and -compare reads.
type resultFile struct {
	Env       environment             `json:"env"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

// workloadRun holds one workload's records: Runs are the timed passes
// (end-to-end metrics), Traced the one traced pass (per-layer metrics).
type workloadRun struct {
	Runs   []*record `json:"runs"`
	Traced *record   `json:"traced,omitempty"`
}

// runAll re-executes this binary once per workload and pass, so that
// set-up time and peak memory are per workload and no workload inherits
// another's warm trace store, heap, or datasets.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.out == "" {
		o.out = filepath.Join("bench", "out", "result.json")
	}
	dir := filepath.Dir(o.out)
	res := resultFile{Env: currentEnvironment(), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]*workloadRun{}}
	failed := false
	child := func(name string, trace bool, i int) *record {
		path := filepath.Join(dir, fmt.Sprintf("run-%s-%d-%d.json", name, b2i(trace), i))
		args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(b2i(trace)), "-out", path}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", name, b2i(trace), err)
			failed = true
		}
		var rec record
		if err := readJSON(path, &rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			failed = true
			return nil
		}
		os.Remove(path)
		return &rec
	}
	for i := range allWorkloads {
		w := &allWorkloads[i]
		wr := &workloadRun{}
		res.Workloads[w.name] = wr
		for r := 0; r < o.runs; r++ {
			if rec := child(w.name, false, r); rec != nil {
				wr.Runs = append(wr.Runs, rec)
			}
		}
		wr.Traced = child(w.name, true, 0)
	}
	if err := writeJSON(o.out, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult file: %s (%d hardware threads, %s, rev %s)\n", o.out, res.Env.HWThreads, res.Env.GoVersion, res.Env.GitRev)
	if failed {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
