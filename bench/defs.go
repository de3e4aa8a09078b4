package main

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; bench_test.go
// holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics carry none: they explain, they do not gate.
	Bound float64
}

// endToEnd is what every workload reports from its timed pass. Times
// are per captured bus event ("ref") because the seed changes the size
// of the generated dataset: FIMI's event count moves by about a tenth
// between seeds, and a raw wall time would move with it.
var endToEnd = []metricDef{
	// Median of the set-ups done in one run: fresh state, capture where
	// the workload keeps one, and one untimed warm-up iteration.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median wall time a caller waits for one sweep, per bus event.
	{Name: "sweep_ns_per_ref", Unit: "ns", Better: "lower", Bound: 0.25},
	// Median process CPU time (user + system) of one sweep, per bus event.
	{Name: "cpu_ns_per_ref", Unit: "ns", Better: "lower", Bound: 0.25},
	// ru_maxrss of the workload's own process when its timed region ends:
	// one set-up and the sweeps after it.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is what every workload reports from its traced pass: each
// layer timed through its public API over the workload's own capture.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{Name: "softsdv.exec_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "softsdv.sim_mips", Unit: "Minst/s", Better: "higher"},
	{Name: "softsdv.instructions", Unit: "count", Better: "lower"},
	{Name: "softsdv.bus_events", Unit: "count", Better: "lower"},
	{Name: "workloads.build_s", Unit: "s", Better: "lower"},

	{Name: "trace.encode_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "trace.bytes_per_ref", Unit: "B", Better: "lower"},
	{Name: "trace.decode_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_allocs_per_mref", Unit: "count", Better: "lower"},

	{Name: "tracestore.record_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "tracestore.spill_write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tracestore.spill_load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tracestore.hit_us", Unit: "us", Better: "lower"},
	{Name: "tracestore.resident_mb", Unit: "MB", Better: "lower"},

	{Name: "fsb.serial_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fsb.batched_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fsb.sharded_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fsb.batched_speedup", Unit: "x", Better: "higher"},
	{Name: "dragonhead.sharded_speedup", Unit: "x", Better: "higher"},
	{Name: "par.jobs_speedup", Unit: "x", Better: "higher"},

	{Name: "dragonhead.onref_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "dragonhead.self_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "dragonhead.samples", Unit: "count", Better: "lower"},

	{Name: "cache.access_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cache.access_batch_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cache.access_batch_line4k_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cache.access_batch_random_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},

	{Name: "oracle.pass_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "oracle.track_ms", Unit: "ms", Better: "lower"},
	{Name: "stackdist.record_ns_per_ref", Unit: "ns", Better: "lower"},

	{Name: "sampling.fingerprint_ns_per_ref", Unit: "ns", Better: "lower"},
	{Name: "sampling.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.windows_s", Unit: "s", Better: "lower"},
	{Name: "sampling.replayed_frac", Unit: "ratio", Better: "lower"},
	{Name: "sampling.clusters", Unit: "count", Better: "lower"},
	{Name: "sampling.err_pct", Unit: "%", Better: "lower"},
	{Name: "sampling.ci_width_pct", Unit: "%", Better: "lower"},
	{Name: "sampling.ci_coverage", Unit: "ratio", Better: "higher"},

	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.passes", Unit: "count", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},

	{Name: "server.spec_decode_us", Unit: "us", Better: "lower"},
	{Name: "server.marshal_us", Unit: "us", Better: "lower"},
	{Name: "server.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.cache_lookup_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.cached_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.cached_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "server.sweeps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.trace_executions", Unit: "count", Better: "lower"},
	{Name: "server.singleflight_waits", Unit: "count", Better: "lower"},
	{Name: "server.result_cache_hits", Unit: "count", Better: "higher"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower"},

	{Name: "telemetry.enabled_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.sweep_s", Unit: "s", Better: "lower"},

	{Name: "runtime.alloc_mb_per_sweep", Unit: "MB", Better: "lower"},
	{Name: "runtime.mallocs_per_sweep", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_sweep", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_sweep", Unit: "ms", Better: "lower"},
}

func findMetric(name string) *metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for i := range defs {
			if defs[i].Name == name {
				return &defs[i]
			}
		}
	}
	return nil
}
