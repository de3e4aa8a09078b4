// The sweep planner — step one of the executor (sweep.go): compile an
// experiment grid into analytic and emulation legs, so the whole grid
// is answered in one trace pass.
//
// The paper's operational flow reprograms the Dragonhead board once per
// cache configuration — a 14-experiment CacheSweep + LineSweep session
// is 14 snooping passes. The planner collapses that: it deduplicates
// geometries shared by sub-sweeps and partitions the grid into configs
// the Mattson engine answers analytically (LRU, unsectored, at the
// plan's line size — one stack-distance profile answers every size x
// assoc point at once) and configs that are emulated (other line sizes,
// sectored lines, non-LRU policies, a family too small to pay for the
// analytic pass). Both legs ride a single bus pass; results are
// bit-identical to emulating every config, which `cosim -verify` proves.

package core

import (
	"fmt"

	"cmpmem/internal/cache"
	"cmpmem/internal/hier"
	"cmpmem/internal/oracle"
)

// Engine selects how a sweep answers its cache configurations. It is
// the planner's choice, not a user's: every entry point plans
// (EngineAuto) except LLCSweep, the reference route with one Dragonhead
// per distinct geometry. The type stays exported because bench's probes
// and reference runs name it.
type Engine int

const (
	// EngineEmulate plans with emulators only: one Dragonhead per
	// canonical geometry, no analytic leg — the reference every other
	// engine is verified against, and LLCSweep's route.
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

// oneChain reports whether the plan's family would be one dragonhead.Chain:
// two chains, or four lone emulators, cost more CPU than the oracle.
func oneChain(plan *SweepPlan) bool {
	rungs := make(map[[2]int]bool)
	for i, cfg := range plan.Configs {
		if plan.Entries[i].Canonical != i || !analyticEligible(cfg) || cfg.LineSize != plan.LineSize {
			continue
		}
		d, err := bankedConfig(cfg)
		if err != nil || cfg.Assoc < 1 || cfg.Assoc > 64 {
			return false
		}
		rungs[[2]int{cfg.Assoc, d.Banks}] = true
	}
	return len(rungs) == 1
}

// PlanEntry records how one config of the flattened grid is answered.
type PlanEntry struct {
	// Analytic is true when the canonical config is answered by the
	// Mattson engine rather than an emulator.
	Analytic bool
	// Canonical is the index (into the flattened grid) of the config
	// that actually computes this entry's numbers. Entries whose
	// Canonical differs from their own index are duplicates: they copy
	// the canonical result under their own name.
	Canonical int
}

// SweepPlan is the compiled execution plan of one sweep.
type SweepPlan struct {
	// Configs is the flattened input grid, in caller order.
	Configs []cache.Config
	// Entries has one record per config, same order.
	Entries []PlanEntry
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

// PlanSweep compiles a flattened config grid into a SweepPlan under
// the given engine policy. EngineEmulate sends every canonical config
// to the emulation leg (duplicates still dedupe); EngineAuto picks the
// dominant line size among eligible configs and answers that family
// analytically where it pays (minAnalyticFamily); EngineOracle at any
// size, failing if any config cannot be (the first oracle.MaxTracked
// canonical configs of the family at most). Exported because bench's
// probes plan their grids the way the sweeps they measure do.
func PlanSweep(configs []cache.Config, engine Engine) (*SweepPlan, error) {
	plan := &SweepPlan{
		Configs: append([]cache.Config(nil), configs...),
		Entries: make([]PlanEntry, len(configs)),
	}

	// Pass 1: dedupe by behavioral geometry.
	canonical := make(map[geomKey]int, len(configs))
	for i, cfg := range configs {
		k := geomKey{cfg.Size, cfg.LineSize, cfg.Assoc, cfg.Repl, cfg.SectorSize}
		if first, ok := canonical[k]; ok {
			plan.Entries[i] = PlanEntry{Canonical: first}
			continue
		}
		canonical[k] = i
		plan.Entries[i] = PlanEntry{Canonical: i}
	}

	// Pass 2: choose the analytic line size — the one answering the
	// most canonical configs (ties to the smaller size, so the choice
	// is deterministic). One engine holds one line-granular profile;
	// a config at any other line size re-blocks the stream and goes to
	// the emulation leg.
	if engine != EngineEmulate {
		counts := make(map[uint64]int)
		for i, cfg := range configs {
			if plan.Entries[i].Canonical == i && analyticEligible(cfg) {
				counts[cfg.LineSize]++
			}
		}
		for ls, n := range counts {
			best := counts[plan.LineSize]
			if plan.LineSize == 0 || n > best || (n == best && ls < plan.LineSize) {
				plan.LineSize = ls
			}
		}
		if engine == EngineAuto && counts[plan.LineSize] < minAnalyticFamily && oneChain(plan) {
			plan.LineSize = 0 // cheaper emulated
		}
	}

	// Pass 3: partition canonical configs into legs. One engine tracks
	// at most oracle.MaxTracked geometries; the rest are emulated.
	for i, cfg := range configs {
		if plan.Entries[i].Canonical != i {
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
		plan.Entries[i].Analytic = analytic
		if analytic {
			plan.Analytic = append(plan.Analytic, i)
		} else {
			plan.Emulated = append(plan.Emulated, i)
		}
	}
	return plan, nil
}

func sectoredNote(cfg cache.Config) string {
	if cfg.SectorSize != 0 {
		return ", sectored"
	}
	return ""
}
