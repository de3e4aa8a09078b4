// The sweep planner — step one of the executor (sweep.go): compile an
// experiment grid into analytic and emulation legs, so the whole grid
// is answered in one trace pass, and name the answerer of every config.
//
// The paper's operational flow reprograms the Dragonhead board once per
// cache configuration — a 14-experiment CacheSweep + LineSweep session
// is 14 snooping passes. The planner collapses that: it deduplicates
// geometries shared by sub-sweeps and partitions the grid into configs
// the Mattson engine answers analytically (LRU, unsectored, at the
// plan's line size — one stack-distance profile answers every size x
// assoc point at once) and configs that are emulated (other line sizes,
// sectored lines, non-LRU policies, a family too small to pay for the
// analytic pass). The emulated leg is grouped by snooper: a ladder of
// sizes is one dragonhead.Chain, anything else a lone Dragonhead. Both
// legs ride a single bus pass; results are bit-identical to emulating
// every config, which `cosim -verify` proves.

package core

import (
	"fmt"
	"sort"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/hier"
	"cmpmem/internal/oracle"
)

// Engine selects how a sweep answers its cache configurations. It is
// the planner's choice, not a user's: every entry point plans with
// EngineAuto except LLCSweep, the reference route, which plans with
// EngineEmulate. The type stays exported because bench's probes and
// reference runs name it.
type Engine int

const (
	// EngineEmulate plans with emulators only: every canonical geometry
	// is emulated, no analytic leg — the reference every other engine is
	// verified against, and LLCSweep's route.
	EngineEmulate Engine = iota
	// EngineAuto plans the sweep: analytically expressible configs are
	// answered by the Mattson engine where it pays, the rest by emulation,
	// duplicates by neither. The default of every entry point but LLCSweep.
	EngineAuto
	// EngineOracle requires every config to be analytically
	// answerable and fails the sweep otherwise — the strict leg of the
	// verification suite's planner gate.
	EngineOracle
)

// String names the engine in reports (the verify suite's findings).
func (e Engine) String() string {
	switch e {
	case EngineEmulate:
		return "emulate"
	case EngineAuto:
		return "auto"
	case EngineOracle:
		return "oracle"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// WithEngine overrides the planner's engine. Results are bit-identical
// across engines — the option changes wall-clock, never statistics. No
// user surface sets it; it stays only because bench's reference runs
// and the verification suite do.
func WithEngine(e Engine) RunOption {
	return func(o *runOpts) { o.engine = e }
}

// geomKey is the behavioral identity of a cache config: two configs
// with equal keys produce identical statistics on any stream, whatever
// their names.
type geomKey struct {
	Size       uint64
	LineSize   uint64
	Assoc      int
	Repl       cache.Policy
	SectorSize uint64
}

// minAnalyticFamily is the smallest family (canonical eligible configs at
// the plan's line size) EngineAuto answers analytically if one chain could:
// at 1/64 a 1-4 rung chain costs less CPU on 7 of 8 workloads (DESIGN §5).
const minAnalyticFamily = 5

// SweepPlan is the compiled execution plan of one sweep: it names the
// answerer of every config.
type SweepPlan struct {
	// Configs is the flattened input grid, in caller order.
	Configs []cache.Config
	// Entries holds, per config, the index of the canonical config that
	// computes its numbers. A config whose entry is not its own index is
	// a duplicate geometry: it copies the canonical result under its own
	// name.
	Entries []int
	// LineSize is the analytic leg's line size (0 when the plan has no
	// analytic leg).
	LineSize uint64
	// Analytic and Emulated list the canonical config indices of each
	// leg, in first-appearance order.
	Analytic []int
	// Emulated holds what the profile cannot express: other line
	// sizes, sectored lines, non-LRU policies, invalid geometries
	// (those fail in the emulator constructor with the legacy error),
	// and the family's configs past oracle.MaxTracked.
	Emulated []int
	// Groups partitions Emulated by snooper, each group in its first
	// member's place: two or more configs are the ladder one
	// dragonhead.Chain answers, smallest first; one is a lone Dragonhead.
	Groups [][]int
	// Hiers are the timing-hierarchy configs (RunHier) answered on the
	// same pass, one hier.Machine each; the planner does not touch them.
	Hiers []hier.Config
}

// Passes returns how many snooping passes over the trace the plan
// needs: one combined pass when any config must be answered, zero for
// an empty grid. The per-config baseline this saves against is
// len(Configs)+len(Hiers) passes — the reprogram-per-experiment flow.
func (p *SweepPlan) Passes() int {
	if len(p.Analytic)+len(p.Emulated)+len(p.Hiers) == 0 {
		return 0
	}
	return 1
}

// analyticEligible reports whether the Mattson engine can express cfg
// at all (line-size agreement is decided plan-wide, not here): true
// LRU only — inclusion does not hold for FIFO or Random — and
// unsectored only, because per-sector valid bits add fill state a
// stack profile cannot see.
func analyticEligible(cfg cache.Config) bool {
	return cfg.Repl == cache.LRU && cfg.SectorSize == 0 && cfg.Validate() == nil
}

// emulatorGroups partitions the canonical configs idx into the snoopers
// that answer them, in order of first appearance: valid configs that
// dragonhead.Chainable accepts and that agree on line size,
// associativity and banks form one group, smallest first; every other
// config is a group of its own. loose counts the configs that cannot
// chain at all.
func emulatorGroups(configs []cache.Config, idx []int) (groups [][]int, loose int) {
	at := make(map[[3]uint64]int) // (line size, assoc, banks) -> group
	for _, i := range idx {
		d, err := bankedConfig(configs[i])
		if err != nil || configs[i].Validate() != nil || dragonhead.Chainable(d) != nil {
			groups, loose = append(groups, []int{i}), loose+1
			continue
		}
		k := [3]uint64{d.LLC.LineSize, uint64(d.LLC.Assoc), uint64(d.Banks)}
		if g, ok := at[k]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		at[k] = len(groups)
		groups = append(groups, []int{i})
	}
	for _, g := range groups {
		sort.Slice(g, func(a, b int) bool { return configs[g[a]].Size < configs[g[b]].Size })
	}
	return groups, loose
}

// PlanSweep compiles a flattened config grid into a SweepPlan under
// the given engine policy. EngineEmulate sends every canonical config
// to the emulation leg (duplicates still dedupe); EngineAuto picks the
// dominant line size among eligible configs and answers that family
// analytically where it pays (minAnalyticFamily); EngineOracle at any
// size, failing if any config cannot be (the first oracle.MaxTracked
// canonical configs of the family at most). The emulated leg is then
// grouped into snoopers (emulatorGroups). Exported because bench's
// probes plan their grids the way the sweeps they measure do.
func PlanSweep(configs []cache.Config, engine Engine) (*SweepPlan, error) {
	plan := &SweepPlan{
		Configs: append([]cache.Config(nil), configs...),
		Entries: make([]int, len(configs)),
	}

	// Pass 1: dedupe by behavioral geometry.
	canonical := make(map[geomKey]int, len(configs))
	for i, cfg := range configs {
		k := geomKey{cfg.Size, cfg.LineSize, cfg.Assoc, cfg.Repl, cfg.SectorSize}
		if first, ok := canonical[k]; ok {
			plan.Entries[i] = first
			continue
		}
		canonical[k] = i
		plan.Entries[i] = i
	}

	// Pass 2: choose the analytic line size — the one answering the
	// most canonical configs (ties to the smaller size, so the choice
	// is deterministic). One engine holds one line-granular profile;
	// a config at any other line size re-blocks the stream and goes to
	// the emulation leg.
	if engine != EngineEmulate {
		families := make(map[uint64][]int)
		for i, cfg := range configs {
			if plan.Entries[i] == i && analyticEligible(cfg) {
				families[cfg.LineSize] = append(families[cfg.LineSize], i)
			}
		}
		for ls, f := range families {
			best := len(families[plan.LineSize])
			if plan.LineSize == 0 || len(f) > best || (len(f) == best && ls < plan.LineSize) {
				plan.LineSize = ls
			}
		}
		// One chain costs less CPU than the oracle; two chains, or four
		// lone emulators, cost more.
		if f := families[plan.LineSize]; engine == EngineAuto && len(f) < minAnalyticFamily {
			if groups, loose := emulatorGroups(configs, f); len(groups) == 1 && loose == 0 {
				plan.LineSize = 0 // cheaper emulated
			}
		}
	}

	// Pass 3: partition canonical configs into legs. One engine tracks
	// at most oracle.MaxTracked geometries; the rest are emulated.
	for i, cfg := range configs {
		if plan.Entries[i] != i {
			continue
		}
		analytic := engine != EngineEmulate && analyticEligible(cfg) && cfg.LineSize == plan.LineSize
		if analytic && len(plan.Analytic) == oracle.MaxTracked {
			if engine == EngineOracle {
				return nil, fmt.Errorf("core: strict oracle plan: config %q is past the %d geometries one oracle engine tracks",
					cfg.Name, oracle.MaxTracked)
			}
			analytic = false
		}
		if !analytic && engine == EngineOracle {
			return nil, fmt.Errorf(
				"core: strict oracle plan: config %q (line %d B, %v%s) is not analytically answerable in a plan at %d B lines",
				cfg.Name, cfg.LineSize, cfg.Repl, sectoredNote(cfg), plan.LineSize)
		}
		if analytic {
			plan.Analytic = append(plan.Analytic, i)
		} else {
			plan.Emulated = append(plan.Emulated, i)
		}
	}
	plan.Groups, _ = emulatorGroups(configs, plan.Emulated)
	return plan, nil
}

func sectoredNote(cfg cache.Config) string {
	if cfg.SectorSize != 0 {
		return ", sectored"
	}
	return ""
}
