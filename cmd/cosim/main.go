// Command cosim regenerates every table and figure of the paper:
//
//	cosim table1          input parameters and datasets
//	cosim table2          single-threaded workload characteristics
//	cosim fig4            LLC MPKI vs cache size, 8-core SCMP
//	cosim fig5            LLC MPKI vs cache size, 16-core MCMP
//	cosim fig6            LLC MPKI vs cache size, 32-core LCMP
//	cosim fig7            LLC MPKI vs line size, LCMP with 32 MB LLC
//	cosim fig8            hardware-prefetching gains, serial & 16-thread
//	cosim all             everything above
//
// Beyond the paper's exhibits:
//
//	cosim proj128         Section 4.3's 128-core working-set projection,
//	                      measured instead of extrapolated
//	cosim dramcache       the conclusions' DRAM-LLC proposal, quantified
//	cosim phases          MPKI-over-time from the CB's 500us samples
//	cosim llcorg          shared vs private LLC organization, same capacity
//	cosim workingsets     stack-distance working sets on SCMP/MCMP/LCMP
//	cosim sweep           answer one JSON sweep spec (-spec file, or - for
//	                      stdin) and print the result JSON — the same
//	                      execution path and output bytes as cosimd, so a
//	                      served result diffs clean against a local run
//	cosim traceinfo       profile each selected workload's in-window
//	                      reference stream on -threads cores: access mix,
//	                      footprint, strides, per-core counts and, with
//	                      -stackdist, a Mattson reuse-distance summary —
//	                      rows of the exhibit table, so they share the
//	                      execution of any other subcommand on that
//	                      platform; -windows n adds a phase timeline
//	                      from a second table run (its window length is
//	                      the first run's reference count over n)
//	cosim trace [-fold] [-job id] [-kind k] [-last] [file]
//	                      render the span trees of a manifest stream
//	                      (see trace.go)
//
// Several subcommands may follow one another. Their exhibits run
// together (core.RunExhibits): each (workload, platform) executes once
// for all of them, so `cosim all` runs 32 guest executions — 8
// workloads on 1, 8, 16 and 32 cores — and the results print in
// command order. Every subcommand executes live and keeps no stream:
// re-executing the guest costs less than holding its stream, and the
// exhibits are exact. `cosim sweep` still honours a spec's "sampling",
// so it prints the bytes cosimd serves for the spec.
//
// Flags:
//
//	-scale f    footprint scale relative to the paper (default 1/16)
//	-seed n     dataset seed (default 1)
//	-csv        emit CSV instead of tables/plots
//	-svg dir    write Figures 4-7 as SVG files (fig4.svg, ...) into dir
//	            instead of plotting them on stdout
//	-workloads  comma-separated subset (default: all eight); only the
//	            selected workloads execute
//	-j n        run up to n independent workload executions concurrently
//	            (default GOMAXPROCS; 1 forces serial orchestration)
//	-metrics-addr addr
//	            serve live metrics over HTTP while exhibits run:
//	            /metrics (Prometheus text) and /debug/pprof/*
//	            (profiling); also enables the per-sweep
//	            progress line on stderr and the run manifest
//	-manifest path
//	            append one JSON run manifest per exhibit run to this file
//	            (JSONL; defaults to cosim_manifest.jsonl when
//	            -metrics-addr is set)
//	-verify     run the verification suite instead of an exhibit:
//	            differential stack-distance oracles against the cache
//	            emulators, metamorphic invariants (LRU inclusion, bank
//	            neutrality, serial == batched == replay), telemetry
//	            conservation, fault injection, and the sweep planner
//	            (default and strict) against per-config emulation;
//	            exits non-zero if any check fails (honors -workloads,
//	            -scale, -seed and -j)
//	-verify-out path
//	            with -verify, also write the report as JSON to this file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cmpmem/internal/core"
	"cmpmem/internal/metrics"
	"cmpmem/internal/report"
	"cmpmem/internal/server"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cosim", flag.ContinueOnError)
	scale := fs.Float64("scale", workloads.DefaultScale, "footprint scale relative to the paper")
	seed := fs.Int64("seed", 1, "dataset seed")
	csv := fs.Bool("csv", false, "emit CSV instead of tables/plots")
	svgDir := fs.String("svg", "", "write figures as SVG files into this directory")
	subset := fs.String("workloads", "", "comma-separated workload subset")
	jobs := fs.Int("j", 0, "concurrent workload runs (0 = GOMAXPROCS, 1 = serial)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	manifestPath := fs.String("manifest", "", "append JSONL run manifests to this file (default cosim_manifest.jsonl with -metrics-addr)")
	verifyMode := fs.Bool("verify", false, "run the verification suite (oracles, invariants, fault injection) and exit")
	verifyOut := fs.String("verify-out", "", "with -verify, write the report as JSON to this file")
	specPath := fs.String("spec", "", "with the sweep subcommand, the JSON spec file (- reads stdin)")
	threads := fs.Int("threads", 8, "with the traceinfo subcommand, virtual cores")
	windows := fs.Int("windows", 0, "with the traceinfo subcommand, also print a phase timeline with this many windows")
	stackdist := fs.Bool("stackdist", false, "with the traceinfo subcommand, also print a stack-distance (LRU reuse) summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Out-of-range inputs fail before anything executes or prints; scale
	// and threads take the bounds a cosimd spec does.
	switch {
	case !(*scale > 0 && *scale <= server.MaxScale):
		return fmt.Errorf("-scale %v out of range (0, %v]", *scale, server.MaxScale)
	case *threads < 1 || *threads > server.MaxThreads:
		return fmt.Errorf("-threads %d out of range [1, %d]", *threads, server.MaxThreads)
	case *windows < 0:
		return fmt.Errorf("-windows %d is negative", *windows)
	}
	names, err := selectWorkloads(*subset)
	if err != nil {
		return err
	}
	p := workloads.Params{Seed: *seed, Scale: *scale}
	if *verifyMode {
		return runVerify(p, names, *verifyOut, *jobs)
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (table1|table2|fig4|fig5|fig6|fig7|fig8|all|sweep|traceinfo|trace)")
	}
	// The trace subcommand renders manifests instead of producing them,
	// so it bypasses telemetry setup (which would open the manifest file
	// for appending).
	if fs.Arg(0) == "trace" {
		return traceCmd(fs.Args()[1:], *manifestPath, os.Stdout)
	}
	sink, telClose, err := setupTelemetry(*metricsAddr, *manifestPath)
	if err != nil {
		return err
	}
	defer telClose()
	opts := []core.RunOption{core.WithParallelism(*jobs), core.WithTelemetry(sink)}
	cmds := fs.Args()

	if len(cmds) == 1 && cmds[0] == "all" {
		cmds = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8"}
	}
	// Every subcommand declares the exhibits it needs and how it prints
	// them; the exhibits of all of them run together, so a (workload,
	// platform) executes once however many of them ask for it.
	var exhibits []core.Exhibit
	prints := make([]func() error, len(cmds))
	for i, cmd := range cmds {
		var ex []core.Exhibit
		switch cmd {
		case "table1":
			prints[i] = func() error { return table1(names, p) }
		case "table2":
			ex, prints[i] = table2(names, p)
		case "fig4", "fig5", "fig6", "fig7":
			ex, prints[i] = mpkiFigure(names, p, cmd, *csv, *svgDir)
		case "fig8":
			ex, prints[i] = fig8(names, p)
		case "proj128":
			ex, prints[i] = proj128(names, p)
		case "dramcache":
			ex, prints[i] = dramcache(names, p)
		case "phases":
			ex, prints[i] = phases(names, p, *csv)
		case "llcorg":
			ex, prints[i] = llcorg(names, p)
		case "workingsets":
			ex, prints[i] = workingsets(names, p)
		case "sweep":
			prints[i] = func() error { return sweepCmd(os.Stdout, *specPath, opts) }
		case "traceinfo":
			ex, prints[i] = traceinfo(os.Stdout, names, p, *threads, *windows, *stackdist, opts)
		default:
			return fmt.Errorf("unknown subcommand %q", cmd)
		}
		exhibits = append(exhibits, ex...)
	}
	if len(exhibits) > 0 {
		start := time.Now()
		if err := core.RunExhibits(exhibits, opts...); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[exhibits done in %v]\n", time.Since(start).Round(time.Millisecond))
	}
	for i, cmd := range cmds {
		start := time.Now()
		if err := prints[i](); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		// An exhibit's work ran inside RunExhibits; only these three may
		// work here (traceinfo's -windows timeline is a second table), so
		// only their time is worth a line.
		if cmd == "table1" || cmd == "sweep" || cmd == "traceinfo" {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// runVerify executes the full verification suite (the `-verify` mode):
// oracle differentials, metamorphic invariants, conservation, and fault
// injection. The rendered report goes to stdout; an optional JSON copy
// goes to outPath (the CI artifact). Workloads verify on a pool of jobs
// workers; the report does not depend on its width. A failed check is a
// non-zero exit.
func runVerify(p workloads.Params, names []string, outPath string, jobs int) error {
	start := time.Now()
	rep, err := core.VerifyAll(names, p, core.WithParallelism(jobs))
	if err != nil {
		return err
	}
	rep.Render(os.Stdout)
	fmt.Fprintf(os.Stderr, "[verify done in %v]\n", time.Since(start).Round(time.Millisecond))
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	if !rep.OK() {
		return fmt.Errorf("verification failed")
	}
	return nil
}

// boundMetricsAddr holds the address the metrics listener actually
// bound (resolving ":0"), for log lines and the in-package tests.
var boundMetricsAddr atomic.Value // string

// metricsDrainTimeout bounds how long a shutdown waits for in-flight
// /metrics scrapes before force-closing their connections.
const metricsDrainTimeout = 3 * time.Second

// setupTelemetry turns the -metrics-addr / -manifest flags into the
// run's telemetry sink plus a cleanup function; the sink is nil when
// neither flag is set. Either flag alone enables the full substrate:
// counters, spans, manifests, and the stderr progress line.
func setupTelemetry(addr, manifestPath string) (*telemetry.Sink, func(), error) {
	if addr == "" && manifestPath == "" {
		return nil, func() {}, nil
	}
	reg := telemetry.NewRegistry()
	if manifestPath == "" {
		manifestPath = "cosim_manifest.jsonl"
	}
	man, err := telemetry.OpenManifestFile(manifestPath, 0)
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { man.Close() }
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			man.Close()
			return nil, nil, err
		}
		boundMetricsAddr.Store(ln.Addr().String())
		srv := &http.Server{Handler: telemetry.Handler(reg)}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics (manifests -> %s)\n",
			ln.Addr(), manifestPath)
		// A mid-sweep SIGINT/SIGTERM drains the metrics server (letting
		// an in-flight scrape finish) and flushes the manifest stream
		// instead of dying mid-write.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			if _, ok := <-sigc; !ok {
				return
			}
			fmt.Fprintln(os.Stderr, "telemetry: signal received, draining metrics server")
			telemetry.Drain(srv, metricsDrainTimeout)
			man.Close()
			os.Exit(130)
		}()
		cleanup = func() {
			signal.Stop(sigc)
			close(sigc)
			telemetry.Drain(srv, metricsDrainTimeout)
			man.Close()
		}
	}
	return telemetry.NewSink(reg, man, os.Stderr), cleanup, nil
}

// sweepCmd answers one spec file through server.ExecuteSpec — the exact
// path cosimd's workers run — and prints the result JSON to w. The
// CLI's options change wall-clock only; the spec decides its accuracy
// tier, so the output is a pure function of the spec.
func sweepCmd(w io.Writer, specPath string, opts []core.RunOption) error {
	if specPath == "" {
		return fmt.Errorf("sweep: missing -spec file (use - for stdin)")
	}
	var in io.Reader = os.Stdin
	if specPath != "-" {
		f, err := os.Open(specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	spec, err := server.DecodeSpec(in)
	if err != nil {
		return err
	}
	res, err := server.ExecuteSpec(spec, opts...)
	if err != nil {
		return err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", body)
	return err
}

// selectWorkloads resolves the -workloads flag to workload names in
// Table 1 order (all eight when the flag is empty). Only these execute:
// every exhibit runner takes the selection.
func selectWorkloads(subset string) ([]string, error) {
	all := registry.Names()
	if subset == "" {
		return all, nil
	}
	keep := map[string]bool{}
	for _, n := range strings.Split(subset, ",") {
		n = strings.ToUpper(strings.TrimSpace(n))
		if !slices.Contains(all, n) {
			return nil, fmt.Errorf("unknown workload %q in -workloads (valid: %s)", n, strings.Join(all, ", "))
		}
		keep[n] = true
	}
	return slices.DeleteFunc(all, func(n string) bool { return !keep[n] }), nil
}

func table1(names []string, p workloads.Params) error {
	t := &report.Table{
		Title:   "Table 1: Input parameters and datasets (scaled)",
		Headers: []string{"Workloads", "Parameters", "Size of Data Input"},
	}
	for _, row := range core.Table1(names, p) {
		t.AddRow(row.Workload, row.Parameters, row.DataSize)
	}
	return t.Render(os.Stdout)
}

// The exhibit subcommands below each return the exhibits they need run
// and the function that prints their rows once those have run.

func table2(names []string, p workloads.Params) ([]core.Exhibit, func() error) {
	rows, ex := core.Table2Exhibits(names, p)
	return ex, func() error {
		t := &report.Table{
			Title: "Table 2: Workload characteristics (single-threaded, P4-class hierarchy)",
			Headers: []string{"Workloads", "IPC", "Inst Count (M)", "% Memory Inst",
				"% Memory Read", "DL1 Acc/1k", "DL1 Miss/1k", "DL2 Miss/1k"},
		}
		for _, r := range rows {
			t.AddRow(r.Workload,
				fmt.Sprintf("%.2f", r.IPC),
				fmt.Sprintf("%.1f", float64(r.Instructions)/1e6),
				fmt.Sprintf("%.2f%%", r.PctMem),
				fmt.Sprintf("%.2f%%", r.PctMemRead),
				fmt.Sprintf("%.0f", r.DL1AccessPer1k),
				fmt.Sprintf("%.2f", r.DL1MissPer1k),
				fmt.Sprintf("%.2f", r.DL2MissPer1k))
		}
		return t.Render(os.Stdout)
	}
}

// mpkiFigure is Figures 4-7: LLC MPKI against cache size on 8, 16 or
// 32 cores, or against line size, as an SVG file, CSV, or an ASCII plot
// on stdout.
func mpkiFigure(names []string, p workloads.Params, fig string, csv bool, svgDir string) ([]core.Exhibit, func() error) {
	var series []metrics.Series
	var ex []core.Exhibit
	title, xLabel, column := "Figure 7: line size sensitivity on LCMP with 32MB LLC", "line size (bytes)", "line_bytes"
	if cores, ok := map[string]int{"fig4": 8, "fig5": 16, "fig6": 32}[fig]; ok {
		series, ex = core.CacheSweepExhibits(names, p, cores)
		title = fmt.Sprintf("Figure %s: LLC misses per 1000 instructions on %d cores", fig[3:], cores)
		xLabel, column = "cache size (paper-equivalent MB)", "cache_MB_paper_equiv"
	} else {
		series, ex = core.LineSweepExhibits(names, p)
	}
	return ex, func() error {
		if svgDir != "" {
			return writeSVG(svgDir, fig+".svg", report.SVGOptions{Title: title, XLabel: xLabel, YLabel: "MPKI", LogX: true}, series)
		}
		if csv {
			return report.CSV(os.Stdout, column, series)
		}
		return report.Plot(os.Stdout, title, xLabel, "MPKI", series, 16)
	}
}

// writeSVG renders one figure file and reports its path on stderr.
func writeSVG(dir, name string, opt report.SVGOptions, series []metrics.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.SVG(f, opt, series); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func fig8(names []string, p workloads.Params) ([]core.Exhibit, func() error) {
	rows, ex := core.Fig8Exhibits(names, p)
	return ex, func() error {
		t := &report.Table{
			Title:   "Figure 8: performance gain of hardware prefetch",
			Headers: []string{"Workloads", "Serial gain", "16-thread gain"},
		}
		for _, r := range rows {
			t.AddRow(r.Workload,
				fmt.Sprintf("%+.1f%%", r.SerialGainPct),
				fmt.Sprintf("%+.1f%%", r.ParallelGainPct))
		}
		return t.Render(os.Stdout)
	}
}

func proj128(names []string, p workloads.Params) ([]core.Exhibit, func() error) {
	rows, ex := core.ProjectionExhibits(names, p, 128)
	return ex, func() error {
		t := &report.Table{
			Title: "128-core projection: measured working sets (Section 4.3)",
			Headers: []string{"Workloads", "Working set (paper-equiv)",
				"Footprint (paper-equiv)", "Wants DRAM cache?"},
		}
		wants := 0
		for _, r := range rows {
			verdict := "no (small LLC suffices)"
			if r.WantsDRAMCache {
				verdict = "YES (working set > 32MB)"
				wants++
			}
			t.AddRow(r.Workload,
				fmt.Sprintf("%.0fMB", r.WorkingSetPaperMB),
				fmt.Sprintf("%.0fMB", r.DistinctPaperMB),
				verdict)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("%d of %d workloads want a large DRAM cache at 128 cores (paper projected 5 of 8;\n"+
			"the paper's count excluded MDS, whose 300MB-class matrix exceeds even the DRAM-cache\n"+
			"capacities it considered — our criterion flags it too)\n",
			wants, len(rows))
		return nil
	}
}

func dramcache(names []string, p workloads.Params) ([]core.Exhibit, func() error) {
	rows, ex := core.DRAMCacheExhibits(names, p, 32)
	return ex, func() error {
		t := &report.Table{
			Title: "DRAM LLC study on LCMP (32 cores): cycle gain vs no LLC",
			Headers: []string{"Workloads", "8MB SRAM LLC", "256MB DRAM LLC",
				"DRAM LLC miss rate"},
		}
		for _, r := range rows {
			t.AddRow(r.Workload,
				fmt.Sprintf("%+.1f%%", r.GainSRAMPct),
				fmt.Sprintf("%+.1f%%", r.GainDRAMPct),
				fmt.Sprintf("%.1f%%", 100*r.L3MissRateDRAM))
		}
		return t.Render(os.Stdout)
	}
}

// workingsets is three rows of the working-set study, one per platform.
func workingsets(names []string, p workloads.Params) ([]core.Exhibit, func() error) {
	var exhibits []core.Exhibit
	var platforms [][]core.ProjectionRow
	for _, cores := range []int{8, 16, 32} {
		rows, ex := core.ProjectionExhibits(names, p, cores)
		platforms, exhibits = append(platforms, rows), append(exhibits, ex...)
	}
	sharing := [...]string{workloads.SharedWS: "shared", workloads.MixedWS: "mixed", workloads.PrivateWS: "private"}
	return exhibits, func() error {
		t := &report.Table{
			Title: "Working sets by platform (stack distance, 0.5% miss-ratio knee, paper-equiv)",
			Headers: []string{"Workloads", "SCMP (8c)", "MCMP (16c)", "LCMP (32c)",
				"Category (Section 4.3)"},
		}
		for w, n := range names {
			row := []string{n}
			for _, rows := range platforms {
				row = append(row, fmt.Sprintf("%.0fMB", rows[w].WorkingSetPaperMB))
			}
			wl, err := registry.New(n, p)
			if err != nil {
				return err
			}
			t.AddRow(append(row, sharing[wl.Category()])...)
		}
		return t.Render(os.Stdout)
	}
}

func llcorg(names []string, p workloads.Params) ([]core.Exhibit, func() error) {
	rows, ex := core.LLCOrgExhibits(names, p, 8, 32)
	return ex, func() error {
		t := &report.Table{
			Title:   "LLC organization on SCMP (8 cores, 32MB paper-equiv total capacity)",
			Headers: []string{"Workloads", "Shared MPKI", "Private MPKI", "Private/Shared"},
		}
		for _, r := range rows {
			ratio := "-"
			if r.SharedMPKI > 0 {
				ratio = fmt.Sprintf("%.2fx", r.PrivateMPKI/r.SharedMPKI)
			}
			t.AddRow(r.Workload,
				fmt.Sprintf("%.3f", r.SharedMPKI),
				fmt.Sprintf("%.3f", r.PrivateMPKI),
				ratio)
		}
		return t.Render(os.Stdout)
	}
}

// phases is one row of its own: the 32 MB point of Figure 4's platform,
// whose CB samples give each workload's miss-rate timeline.
func phases(names []string, p workloads.Params, csv bool) ([]core.Exhibit, func() error) {
	series := make([]metrics.Series, len(names))
	ex := core.Exhibit{Workloads: names, Params: p, Threads: 8, LLCs: core.CacheSweepConfigs(p.Scale)[3:4], Row: func(w int, a core.Answer) {
		series[w].Name = names[w]
		var prev struct{ inst, misses uint64 }
		for i, smp := range a.LLCs[0].Samples {
			dInst := smp.Instructions - prev.inst
			dMiss := smp.Misses - prev.misses
			if dInst > 0 {
				series[w].Add(float64(i), float64(dMiss)*1000/float64(dInst))
			}
			prev.inst, prev.misses = smp.Instructions, smp.Misses
		}
	}}
	return []core.Exhibit{ex}, func() error {
		if csv {
			return report.CSV(os.Stdout, "sample_500us", series)
		}
		for _, s := range series {
			if err := report.Plot(os.Stdout,
				fmt.Sprintf("%s: LLC MPKI per 500us sample (32MB paper-equiv LLC, 8 cores)", s.Name),
				"sample", "interval MPKI", []metrics.Series{s}, 10); err != nil {
				return err
			}
		}
		return nil
	}
}
