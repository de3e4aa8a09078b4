package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/hier"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
)

// sinkForTest builds a sink writing manifests into buf, with progress
// lines discarded into prog.
func sinkForTest(buf, prog *bytes.Buffer) *telemetry.Sink {
	return telemetry.NewSink(telemetry.NewRegistry(),
		telemetry.NewManifestWriter(buf), prog)
}

// decodeManifests parses every JSONL record in buf.
func decodeManifests(t *testing.T, buf *bytes.Buffer) []telemetry.Manifest {
	t.Helper()
	var out []telemetry.Manifest
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m telemetry.Manifest
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("manifest line not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

// TestLLCSweepManifestBitMatch pins the acceptance contract: the
// manifest's summary and per-LLC miss totals are the exact values the
// API returned, not an approximation recomputed elsewhere.
func TestLLCSweepManifestBitMatch(t *testing.T) {
	var buf, prog bytes.Buffer
	sink := sinkForTest(&buf, &prog)
	p := workloads.Params{Seed: 3, Scale: 0.002}
	results, sum, err := LLCSweep("FIMI", p, PlatformConfig{Threads: 4, Seed: 3},
		CacheSweepConfigs(p.Scale)[:3], WithTelemetry(sink))
	if err != nil {
		t.Fatal(err)
	}
	ms := decodeManifests(t, &buf)
	if len(ms) != 1 {
		t.Fatalf("got %d manifests, want 1", len(ms))
	}
	m := ms[0]
	if m.Kind != "plansweep" || m.Workload != "FIMI" || m.Threads != 4 {
		t.Errorf("manifest identity wrong: %+v", m)
	}
	want := telemetry.RunTotals{
		Instructions: sum.Instructions,
		Loads:        sum.Loads,
		Stores:       sum.Stores,
		BusEvents:    sum.BusEvents,
	}
	if m.Summary == nil || *m.Summary != want {
		t.Errorf("manifest summary %+v does not bit-match RunSummary %+v", m.Summary, want)
	}
	if len(m.LLCs) != len(results) {
		t.Fatalf("manifest has %d LLC records, want %d", len(m.LLCs), len(results))
	}
	for i, r := range results {
		if m.LLCs[i].Misses != r.Stats.Misses || m.LLCs[i].Accesses != r.Stats.Accesses {
			t.Errorf("LLC %d: manifest %d/%d misses/accesses, API %d/%d",
				i, m.LLCs[i].Misses, m.LLCs[i].Accesses, r.Stats.Misses, r.Stats.Accesses)
		}
	}
	if m.Counters == nil || len(m.Counters.Counters) == 0 {
		t.Error("manifest carries no counter snapshot")
	}
	if m.Counters != nil && m.Counters.Counters["softsdv_instructions_total"] != sum.Instructions {
		t.Errorf("softsdv counter %d != instructions %d",
			m.Counters.Counters["softsdv_instructions_total"], sum.Instructions)
	}
	if m.Trace == nil || m.Trace.Name != "plansweep/FIMI" || m.Trace.WallNS == 0 {
		t.Errorf("span tree missing or unnamed: %+v", m.Trace)
	}
	if !strings.HasPrefix(prog.String(), "[1] FIMI llcs=3 hiers=0 ") {
		t.Errorf("progress line %q does not start with %q", prog.String(), "[1] FIMI llcs=3 hiers=0 ")
	}
}

// spanNames flattens a span tree into name strings.
func spanNames(s *telemetry.Span, out *[]string) {
	if s == nil {
		return
	}
	*out = append(*out, s.Name)
	for _, c := range s.Children {
		spanNames(c, out)
	}
}

// TestReplaySpansAndEquivalence runs the same sweep live, on a store
// miss and on a store hit with telemetry attached: the numbers stay
// bit-identical, and the span trees name the phases each path actually
// took — a miss captures with the answerers on the capturing bus
// (store{outcome=miss} > capture > build/execute/drain, no replay), a
// hit replays.
func TestReplaySpansAndEquivalence(t *testing.T) {
	p := workloads.Params{Seed: 3, Scale: 0.002}
	pc := PlatformConfig{Threads: 2, Seed: 3}
	cfgs := CacheSweepConfigs(p.Scale)[:2]

	var liveBuf, liveProg bytes.Buffer
	liveRes, liveSum, err := LLCSweep("SHOT", p, pc, cfgs, WithTelemetry(sinkForTest(&liveBuf, &liveProg)))
	if err != nil {
		t.Fatal(err)
	}
	live := decodeManifests(t, &liveBuf)[0]
	if a := live.Trace.Attrs; a["dragonheads"] != "2" || a["emulator_chains"] != "1" {
		t.Errorf("live root attrs %v: want 2 dragonheads in 1 chain", a)
	}
	var names []string
	spanNames(live.Trace, &names)
	for _, want := range []string{"configure", "execute", "collect"} {
		if !contains(names, want) {
			t.Errorf("live span tree missing %q: %v", want, names)
		}
	}

	store := tracestore.New(0, "")
	for _, outcome := range []string{"miss", "hit"} {
		var buf, prog bytes.Buffer
		res, sum, err := LLCSweep("SHOT", p, pc, cfgs,
			WithTelemetry(sinkForTest(&buf, &prog)), WithTraceReuse(store))
		if err != nil {
			t.Fatal(err)
		}
		if liveSum != sum {
			t.Errorf("%s: memoized summary diverged: %+v vs %+v", outcome, sum, liveSum)
		}
		requireLLCResultsEqual(t, outcome, liveRes, res)

		tree := decodeManifests(t, &buf)[0].Trace
		lookup := tree.Find("store")
		if lookup == nil || lookup.Attrs["outcome"] != outcome {
			t.Fatalf("%s: store span %+v, want outcome %s", outcome, lookup, outcome)
		}
		names = names[:0]
		spanNames(tree, &names)
		capture := lookup.Find("capture")
		switch outcome {
		case "miss":
			if capture == nil {
				t.Fatalf("miss: no capture span under store: %v", names)
			}
			// LLCSweep emulates, one Dragonhead per config, and a chain is
			// one answerer: chains plus unchained emulators, here 1 + 0.
			if capture.Attrs["answerers"] != "1" {
				t.Errorf("miss: capture fed %q answerers, want 1 chain", capture.Attrs["answerers"])
			}
			for _, want := range []string{"build", "execute", "drain"} {
				if capture.Find(want) == nil {
					t.Errorf("miss: capture span has no %q child", want)
				}
			}
			if contains(names, "replay") {
				t.Errorf("miss: the answerers were replayed after the capture fed them: %v", names)
			}
		case "hit":
			if capture != nil || !contains(names, "replay") {
				t.Errorf("hit: want a replay and no capture: %v", names)
			}
		}
	}
}

// TestEmulatorChainAttrs: bench's live-sweep ladder runs as one chain
// of eight Dragonheads, and its line-and-policy grid (seven line sizes,
// FIFO and Random at 64 B) is nine lone Dragonheads: its one 64 B LRU
// config is too small a family for the analytic leg, and no two of the
// nine agree on line size, policy and associativity.
func TestEmulatorChainAttrs(t *testing.T) {
	p := workloads.Params{Seed: 3, Scale: 0.002}
	pc := PlatformConfig{Threads: 2, Seed: 3}
	linePolicy := LineSweepConfigs(p.Scale)
	for _, repl := range []cache.Policy{cache.FIFO, cache.Random} {
		c := linePolicy[0]
		c.Name += "/" + repl.String()
		c.Repl = repl
		linePolicy = append(linePolicy, c)
	}
	for _, tc := range []struct {
		name                string
		sweep               func(RunOption) error
		dragonheads, chains string
	}{
		{"live ladder", func(o RunOption) error {
			_, _, err := LLCSweep("SHOT", p, pc, liveLadder(), o)
			return err
		}, "8", "1"},
		{"line and policy grid", func(o RunOption) error {
			_, _, err := CombinedSweep("SHOT", p, pc, [][]cache.Config{linePolicy}, o)
			return err
		}, "9", "0"},
	} {
		var buf, prog bytes.Buffer
		if err := tc.sweep(WithTelemetry(sinkForTest(&buf, &prog))); err != nil {
			t.Fatal(err)
		}
		a := decodeManifests(t, &buf)[0].Trace.Attrs
		if a["dragonheads"] != tc.dragonheads || a["emulator_chains"] != tc.chains {
			t.Errorf("%s: root attrs %v, want %s dragonheads in %s chains", tc.name, a, tc.dragonheads, tc.chains)
		}
	}
}

// TestSmallFamilyRunsAsOneChain: a two-size 64 B ladder — a served
// spec's shape — is planned onto the emulated leg as one chain, and
// answers exactly what the strict oracle and plain emulation answer.
func TestSmallFamilyRunsAsOneChain(t *testing.T) {
	p, pc := tinyParams(), PlatformConfig{Threads: 2, Seed: 9}
	grid := []cache.Config{
		{Name: "16K", Size: 16 << 10, LineSize: 64, Assoc: 8},
		{Name: "64K", Size: 64 << 10, LineSize: 64, Assoc: 8},
	}
	store := tracestore.New(0, "")
	var buf, prog bytes.Buffer
	auto, sum, err := CombinedSweep("SNP", p, pc, [][]cache.Config{grid},
		WithTraceReuse(store), WithTelemetry(sinkForTest(&buf, &prog)))
	if err != nil {
		t.Fatal(err)
	}
	a := decodeManifests(t, &buf)[0].Trace.Attrs
	if a["analytic_configs"] != "0" || a["dragonheads"] != "2" || a["emulator_chains"] != "1" {
		t.Errorf("root attrs %v: want 0 analytic configs and 2 dragonheads in 1 chain", a)
	}
	for _, engine := range []Engine{EngineOracle, EngineEmulate} {
		got, gsum, err := CombinedSweep("SNP", p, pc, [][]cache.Config{grid}, WithTraceReuse(store), WithEngine(engine))
		if err != nil {
			t.Fatal(err)
		}
		if gsum != sum {
			t.Errorf("%v: summary %+v, auto %+v", engine, gsum, sum)
		}
		for i := range grid {
			g, w := got[0][i], auto[0][i]
			if g.Stats != w.Stats || g.MPKI != w.MPKI || g.Instructions != w.Instructions ||
				g.Ignored != w.Ignored || !reflect.DeepEqual(g.Samples, w.Samples) || len(w.Samples) == 0 {
				t.Errorf("%v: %s answers %d misses in %d samples, auto %d in %d",
					engine, grid[i].Name, g.Stats.Misses, len(g.Samples), w.Stats.Misses, len(w.Samples))
			}
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestHierManifest: a timing-hierarchy run is a plansweep like any
// other, whose manifest carries one record per hierarchy config, equal
// to the returned results.
func TestHierManifest(t *testing.T) {
	var buf, prog bytes.Buffer
	sink := sinkForTest(&buf, &prog)
	p := workloads.Params{Seed: 3, Scale: 0.002}
	pf := prefetch.DefaultConfig(64)
	hcs := []hier.Config{hier.PentiumIV(p.Scale), hier.Xeon16(1, p.Scale, nil), hier.Xeon16(1, p.Scale, &pf)}
	res, sum, err := RunHier("SHOT", p, PlatformConfig{Threads: 1, Seed: 3}, hcs, WithTelemetry(sink))
	if err != nil {
		t.Fatal(err)
	}
	ms := decodeManifests(t, &buf)
	if len(ms) != 1 {
		t.Fatalf("got %d manifests, want 1", len(ms))
	}
	m := ms[0]
	if m.Kind != "plansweep" || m.Trace == nil || m.Trace.Name != "plansweep/SHOT" {
		t.Errorf("kind %q, root span %+v; want a plansweep", m.Kind, m.Trace)
	} else if a := m.Trace.Attrs; a["hier_machines"] != "3" || a["dl1_stages"] != "2" {
		t.Errorf("root span attrs %v: want 3 machines on 2 DL1 stages (the Xeons share one)", a)
	}
	var want []telemetry.HierRecord
	for _, r := range res {
		want = append(want, telemetry.HierRecord{IPC: r.IPC, Cycles: r.Cycles, L1Misses: r.L1.Misses, L2Misses: r.L2.Misses})
	}
	if !reflect.DeepEqual(m.Hiers, want) {
		t.Errorf("manifest hierarchy records %+v, want %+v", m.Hiers, want)
	}
	if len(m.LLCs) != 0 {
		t.Errorf("a hierarchy run recorded %d LLCs", len(m.LLCs))
	}
	if m.Summary == nil || m.Summary.Instructions != sum.Instructions {
		t.Error("hier manifest summary does not match")
	}
}
