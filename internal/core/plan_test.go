package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/oracle"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
)

// planGen deterministically generates config grids covering every
// planner-relevant shape: duplicate geometries (under differing names),
// several line sizes, non-LRU policies, sectored lines, and
// fully-associative entries.
type planGen struct{ state uint64 }

func (g *planGen) next() uint64 {
	g.state ^= g.state << 13
	g.state ^= g.state >> 7
	g.state ^= g.state << 17
	return g.state
}

func (g *planGen) config(i int) cache.Config {
	sizes := []uint64{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	lines := []uint64{64, 64, 64, 128, 256} // 64 B dominant, like the paper
	assocs := []int{1, 2, 8, 16, 0}
	cfg := cache.Config{
		Name:     fmt.Sprintf("cfg-%d", i),
		Size:     sizes[g.next()%uint64(len(sizes))],
		LineSize: lines[g.next()%uint64(len(lines))],
		Assoc:    assocs[g.next()%uint64(len(assocs))],
	}
	if g.next()%8 == 0 {
		cfg.Repl = cache.FIFO
	}
	if g.next()%8 == 0 {
		cfg.SectorSize = 16
	}
	return cfg
}

// TestPlanSweepPartitionProperty is the planner's core property: for
// any grid, under any engine policy, every config is answered exactly
// once — the plan is exhaustive (each entry resolves to a canonical
// config that sits in exactly one leg) and disjoint (the legs share no
// index, duplicates join no leg, and a canonical index appears in its
// leg exactly once).
func TestPlanSweepPartitionProperty(t *testing.T) {
	g := &planGen{state: 0x9E3779B97F4A7C15}
	for trial := 0; trial < 200; trial++ {
		n := int(g.next()%20) + 1
		configs := make([]cache.Config, n)
		for i := range configs {
			configs[i] = g.config(i)
		}
		for _, engine := range []Engine{EngineEmulate, EngineAuto} {
			plan, err := PlanSweep(configs, engine)
			if err != nil {
				t.Fatalf("trial %d engine %v: %v", trial, engine, err)
			}
			if len(plan.Entries) != n || len(plan.Configs) != n {
				t.Fatalf("trial %d: plan covers %d/%d entries for %d configs",
					trial, len(plan.Entries), len(plan.Configs), n)
			}
			leg := make(map[int]string) // canonical index -> leg name
			for _, i := range plan.Analytic {
				if prev, dup := leg[i]; dup {
					t.Fatalf("trial %d: config %d in analytic leg and %s", trial, i, prev)
				}
				leg[i] = "analytic"
			}
			for _, i := range plan.Emulated {
				if prev, dup := leg[i]; dup {
					t.Fatalf("trial %d: config %d in emulated leg and %s", trial, i, prev)
				}
				leg[i] = "emulated"
			}
			answered := 0
			for i, e := range plan.Entries {
				can := e.Canonical
				if can < 0 || can >= n {
					t.Fatalf("trial %d: entry %d canonical %d out of range", trial, i, can)
				}
				if plan.Entries[can].Canonical != can {
					t.Fatalf("trial %d: entry %d's canonical %d is itself an alias", trial, i, can)
				}
				a, b := configs[i], configs[can]
				a.Name, b.Name = "", ""
				if a != b {
					t.Fatalf("trial %d: entry %d aliased to a different geometry %d", trial, i, can)
				}
				if can != i {
					if _, inLeg := leg[i]; inLeg {
						t.Fatalf("trial %d: duplicate %d joined a leg", trial, i)
					}
					continue
				}
				answered++
				got, inLeg := leg[i]
				if !inLeg {
					t.Fatalf("trial %d: canonical config %d answered by no leg", trial, i)
				}
				if engine == EngineEmulate && got != "emulated" {
					t.Fatalf("trial %d: EngineEmulate sent config %d to %s", trial, i, got)
				}
				if got == "analytic" {
					if !analyticEligible(configs[i]) || configs[i].LineSize != plan.LineSize {
						t.Fatalf("trial %d: ineligible config %+v in analytic leg (plan line %d)",
							trial, configs[i], plan.LineSize)
					}
				}
				if e.Analytic != (got == "analytic") {
					t.Fatalf("trial %d: entry %d Analytic=%v but leg is %s", trial, i, e.Analytic, got)
				}
			}
			if answered != len(plan.Analytic)+len(plan.Emulated) {
				t.Fatalf("trial %d: %d canonical configs but legs hold %d+%d",
					trial, answered, len(plan.Analytic), len(plan.Emulated))
			}
			if plan.Passes() > 1 || (n > 0 && plan.Passes() != 1) {
				t.Fatalf("trial %d: plan wants %d passes", trial, plan.Passes())
			}
		}
	}
}

// TestPlanSweepOracleStrict checks EngineOracle rejects anything the
// analytic engine cannot answer, and accepts a pure 64 B LRU grid.
func TestPlanSweepOracleStrict(t *testing.T) {
	if _, err := PlanSweep(CacheSweepConfigs(1.0/512), EngineOracle); err != nil {
		t.Errorf("pure cache sweep rejected: %v", err)
	}
	if _, err := PlanSweep(LineSweepConfigs(1.0/512), EngineOracle); err == nil {
		t.Error("line-size sweep accepted by EngineOracle")
	}
	fifo := []cache.Config{{Name: "f", Size: 1 << 14, LineSize: 64, Assoc: 2, Repl: cache.FIFO}}
	if _, err := PlanSweep(fifo, EngineOracle); err == nil {
		t.Error("FIFO grid accepted by EngineOracle")
	}
	sectored := []cache.Config{{Name: "s", Size: 1 << 14, LineSize: 64, Assoc: 2, SectorSize: 16}}
	if _, err := PlanSweep(sectored, EngineOracle); err == nil {
		t.Error("sectored grid accepted by EngineOracle")
	}
}

// TestPlanSweepFamilyRule pins where EngineAuto draws the analytic
// leg: a 64 B LRU ladder of minAnalyticFamily canonical configs goes to
// the oracle, one config fewer to the emulators (as one chain), whatever
// else the grid holds — a duplicate under another name adds nothing to
// the family, and FIFO, sectored and other-line-size configs are
// emulated either way. A small family of two associativities, or of two
// bank counts (a 1 KB cache has two sets, so two banks), would be two
// emulator chains, and keeps the oracle. EngineEmulate never plans
// analytically and EngineOracle always does, failing on any grid it
// cannot answer whole.
func TestPlanSweepFamilyRule(t *testing.T) {
	family := func(k int, base uint64, assocs []int) []cache.Config {
		var out []cache.Config
		for i := range k {
			out = append(out, cache.Config{Name: fmt.Sprintf("f%d", i), Size: base << i, LineSize: 64, Assoc: assocs[i%len(assocs)]})
		}
		// The first config again: one more entry, no more family.
		return append(out, cache.Config{Name: "f0-twin", Size: base, LineSize: 64, Assoc: assocs[0]})
	}
	others := []cache.Config{
		{Name: "fifo", Size: 64 << 10, LineSize: 64, Assoc: 8, Repl: cache.FIFO},
		{Name: "sectored", Size: 64 << 10, LineSize: 64, Assoc: 8, SectorSize: 16},
		{Name: "128B", Size: 64 << 10, LineSize: 128, Assoc: 8},
	}
	for _, tc := range []struct {
		k       int
		base    uint64
		assocs  []int
		chained bool // the family would be one chain
	}{
		{minAnalyticFamily - 1, 16 << 10, []int{8}, true},
		{minAnalyticFamily, 16 << 10, []int{8}, true},
		{minAnalyticFamily - 1, 16 << 10, []int{8, 16}, false},
		{minAnalyticFamily - 1, 1 << 10, []int{8}, false},
	} {
		k, chained := tc.k, tc.chained
		for _, mixed := range []bool{false, true} {
			grid := family(k, tc.base, tc.assocs)
			if mixed {
				grid = append(others[:2:2], append(grid, others[2])...)
			}
			canonical := len(grid) - 1
			for _, engine := range []Engine{EngineEmulate, EngineAuto, EngineOracle} {
				tag := fmt.Sprintf("k=%d/base=%d/assocs=%v/mixed=%v/%v", k, tc.base, tc.assocs, mixed, engine)
				plan, err := PlanSweep(grid, engine)
				if engine == EngineOracle && mixed {
					if err == nil {
						t.Errorf("%s: a grid with FIFO, sectored and 128 B configs passed the strict plan", tag)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				analytic := 0
				if engine == EngineOracle || (engine == EngineAuto && (k >= minAnalyticFamily || !chained)) {
					analytic = k
				}
				if len(plan.Analytic) != analytic || len(plan.Emulated) != canonical-analytic {
					t.Errorf("%s: %d analytic, %d emulated; want %d and %d",
						tag, len(plan.Analytic), len(plan.Emulated), analytic, canonical-analytic)
				}
				if want := map[bool]uint64{true: 64, false: 0}[analytic > 0]; plan.LineSize != want {
					t.Errorf("%s: plan line size %d, want %d", tag, plan.LineSize, want)
				}
			}
		}
	}
}

// TestPlanSweepTrackLimit checks the analytic leg stops at the engine's
// limit: a grid of 70 distinct 64 B LRU geometries plans its first
// oracle.MaxTracked canonical configs analytically and emulates the
// rest (EngineOracle refuses it at plan time, naming the limit), and
// the combined sweep answers all 70 exactly as per-config emulation.
func TestPlanSweepTrackLimit(t *testing.T) {
	var grid []cache.Config
	for sets := uint64(1); sets <= 512; sets <<= 1 {
		for _, assoc := range []int{1, 2, 3, 4, 6, 8, 16} {
			grid = append(grid, cache.Config{Name: fmt.Sprintf("s%d/w%d", sets, assoc), Size: sets * uint64(assoc) * 64, LineSize: 64, Assoc: assoc})
		}
	}
	plan, err := PlanSweep(grid, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracle.MaxTracked; len(plan.Analytic) != n || len(plan.Emulated) != len(grid)-n {
		t.Fatalf("%d analytic, %d emulated; want %d and %d", len(plan.Analytic), len(plan.Emulated), n, len(grid)-n)
	}
	if _, err := PlanSweep(grid, EngineOracle); err == nil || !strings.Contains(err.Error(), fmt.Sprint(oracle.MaxTracked)) {
		t.Errorf("strict plan of %d geometries: error %v, want one naming the limit %d", len(grid), err, oracle.MaxTracked)
	}
	pc := PlatformConfig{Threads: 2, Seed: 3}
	reuse := WithTraceReuse(tracestore.New(0, ""))
	want, _, err := CombinedSweep("PLSA", tinyParams(), pc, [][]cache.Config{grid}, reuse, WithEngine(EngineEmulate))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := CombinedSweep("PLSA", tinyParams(), pc, [][]cache.Config{grid}, reuse)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range grid {
		if !sameLLCResult(got[0][i], want[0][i]) {
			t.Errorf("%s: planned result diverges from emulation\n got %+v\nwant %+v", cfg.Name, got[0][i].Stats, want[0][i].Stats)
		}
	}
}

// mixedGrid exercises every planner decision in one sweep: analytic
// configs (64 B LRU), an emulation-required line size, a non-LRU
// policy, and a duplicate geometry under another name.
func mixedGrid() []cache.Config {
	return []cache.Config{
		{Name: "LLC-16K", Size: 16 << 10, LineSize: 64, Assoc: 8},
		{Name: "LLC-64K", Size: 64 << 10, LineSize: 64, Assoc: 8},
		{Name: "LLC-64K/128B", Size: 64 << 10, LineSize: 128, Assoc: 8},
		{Name: "LLC-64K/fifo", Size: 64 << 10, LineSize: 64, Assoc: 8, Repl: cache.FIFO},
		{Name: "LLC-16K-again", Size: 16 << 10, LineSize: 64, Assoc: 8},
	}
}

func sameLLCResult(a, b LLCResult) bool {
	if a.Stats != b.Stats || a.Instructions != b.Instructions ||
		a.MPKI != b.MPKI || a.Ignored != b.Ignored || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	return true
}

// TestPlannedSweepMatchesEmulation is the planner's bit-equality gate
// in miniature: the same sweep under EngineEmulate (legacy), under
// EngineAuto, and via CombinedSweep must produce identical LLCResults
// — stats, MPKI, per-sample series, everything — for every config,
// including the emulation-required and duplicate entries.
func TestPlannedSweepMatchesEmulation(t *testing.T) {
	grid := mixedGrid()
	pc := PlatformConfig{Threads: 2, Seed: 9}
	store := tracestore.New(0, "")
	reuse := WithTraceReuse(store)

	legacy, legacySum, err := LLCSweep("SNP", tinyParams(), pc, grid, reuse)
	if err != nil {
		t.Fatal(err)
	}
	planned, plannedSum, err := LLCSweep("SNP", tinyParams(), pc, grid, reuse, WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	combined, combinedSum, err := CombinedSweep("SNP", tinyParams(), pc,
		[][]cache.Config{grid[:2], grid[2:]}, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if legacySum != plannedSum || legacySum != combinedSum {
		t.Fatalf("run summaries diverge: %+v / %+v / %+v", legacySum, plannedSum, combinedSum)
	}
	flatCombined := append(append([]LLCResult(nil), combined[0]...), combined[1]...)
	for i := range grid {
		if legacy[i].LLC != grid[i] || planned[i].LLC != grid[i] || flatCombined[i].LLC != grid[i] {
			t.Fatalf("config %d: LLC config not preserved", i)
		}
		if !sameLLCResult(legacy[i], planned[i]) {
			t.Errorf("%s: planned result diverges from emulation\n got %+v\nwant %+v",
				grid[i].Name, planned[i], legacy[i])
		}
		if !sameLLCResult(legacy[i], flatCombined[i]) {
			t.Errorf("%s: combined result diverges from emulation", grid[i].Name)
		}
		if len(legacy[i].Samples) == 0 {
			t.Errorf("%s: no CB samples — the series equality check is vacuous", grid[i].Name)
		}
	}
	// The duplicate must match its canonical entry exactly (modulo name).
	if !sameLLCResult(planned[0], planned[4]) {
		t.Error("duplicate config diverges from its canonical result")
	}
	// The grid's 64 B LRU family is too small for EngineAuto's analytic
	// leg; the strict oracle answers it, and must answer it alike.
	var family []cache.Config
	var want []LLCResult
	for i, cfg := range grid {
		if oracleAnswers(cfg) {
			family, want = append(family, cfg), append(want, legacy[i])
		}
	}
	strict, strictSum, err := LLCSweep("SNP", tinyParams(), pc, family, reuse, WithEngine(EngineOracle))
	if err != nil {
		t.Fatal(err)
	}
	if strictSum != legacySum {
		t.Errorf("oracle run summary %+v, emulated %+v", strictSum, legacySum)
	}
	for i := range family {
		if !sameLLCResult(want[i], strict[i]) {
			t.Errorf("%s: oracle result diverges from emulation", family[i].Name)
		}
	}
}

// TestCombinedSweepCounters checks the planner telemetry: the MDS-flow
// acceptance numbers (analytic/emulated/deduped splits and passes
// saved) land in the counter registry, and the manifest carries the
// plansweep kind.
func TestCombinedSweepCounters(t *testing.T) {
	grids := [][]cache.Config{CacheSweepConfigs(1.0 / 512), LineSweepConfigs(1.0 / 512)}
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	sink := telemetry.NewSink(reg, telemetry.NewManifestWriter(&buf), nil)
	res, _, err := CombinedSweep("SNP", tinyParams(), PlatformConfig{Threads: 2, Seed: 1},
		grids, WithTelemetry(sink))
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != len(grids[0]) || len(res[1]) != len(grids[1]) {
		t.Fatalf("result shapes %d/%d do not mirror grids %d/%d",
			len(res[0]), len(res[1]), len(grids[0]), len(grids[1]))
	}
	snap := reg.Snapshot()
	// 14 configs: 7 cache-sweep (64 B) + 7 line-sweep, whose 64 B entry
	// duplicates the cache sweep's 32 MB point -> 13 canonicals: 7
	// analytic (64 B), 6 emulated (128..4096 B), 1 deduped, and 13 of
	// 14 passes saved by the single combined pass.
	checks := map[string]uint64{
		"core_plan_analytic_configs_total": 7,
		"core_plan_emulated_configs_total": 6,
		"core_plan_deduped_configs_total":  1,
		"core_plan_passes_saved_total":     13,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"plansweep"`)) {
		t.Errorf("manifest missing plansweep kind: %s", buf.Bytes())
	}
	// The deduped pair: cache sweep's 32 MB point and line sweep's 64 B
	// point share one geometry and must report identical numbers.
	if !sameLLCResult(res[0][3], res[1][0]) {
		t.Error("shared geometry across grids reports different results")
	}
}
