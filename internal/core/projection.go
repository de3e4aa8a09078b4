// The paper's forward-looking analyses, run rather than extrapolated:
//
//   - Section 4.3 projects each workload's working set to a 128-core
//     CMP and concludes that 5 of the 8 workloads would benefit from a
//     large DRAM-based last-level cache. Projection128 measures the
//     working sets directly (the software engine scales to 128 virtual
//     cores; the paper's DEX driver stopped at 64).
//   - The conclusions argue for DRAM LLCs (eDRAM, off-die DRAM,
//     3D-stacking). DRAMCacheStudy quantifies the claim with the timing
//     model: execution cycles without an LLC vs with a large-but-slow
//     DRAM LLC.

package core

import (
	"fmt"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/workloads"
)

// ProjectionRow reports one workload's measured working set at a given
// core count.
type ProjectionRow struct {
	Workload string
	Cores    int
	// WorkingSetPaperMB is the stack-distance working set (miss ratio
	// under 2% of references) converted to paper-equivalent megabytes.
	WorkingSetPaperMB float64
	// DistinctPaperMB is the total footprint touched.
	DistinctPaperMB float64
	// WantsDRAMCache applies the paper's criterion: a working set
	// beyond 32 MB paper-equivalent calls for a DRAM LLC.
	WantsDRAMCache bool
}

// dramThresholdPaperMB is the paper's criterion: workloads whose
// working set exceeds 32 MB on large CMPs are "certain to be good
// candidates for large DRAM caches".
const dramThresholdPaperMB = 32

// ProjectionExhibits declares the selected workloads' working sets
// (nil names = all eight) on very large CMPs (default 128 cores),
// measured by single-pass stack-distance analysis of each execution.
func ProjectionExhibits(names []string, p workloads.Params, cores int) ([]ProjectionRow, []Exhibit) {
	p, names = p.WithDefaults(), orAll(names)
	if cores == 0 {
		cores = 128
	}
	rows := make([]ProjectionRow, len(names))
	analyzers := make([]*stackdist.Analyzer, len(names))
	return rows, []Exhibit{{Workloads: names, Params: p, Threads: cores,
		Snoopers: func(w int) ([]fsb.Snooper, error) {
			an := stackdist.New(64, 1<<22)
			analyzers[w] = an
			return []fsb.Snooper{RefSnooper(an.RecordRef)}, nil
		},
		Row: func(w int, _ Answer) {
			// The histogram is 32 MB: it goes with its execution.
			an := analyzers[w]
			analyzers[w] = nil
			// 0.5% miss ratio marks the knee: line-granular workloads touch
			// a new line every ~20 references, so a looser threshold would
			// call a pure stream "cache-resident".
			lines := an.WorkingSetLines(0.005)
			wsBytes := float64(lines) * 64
			if lines < 0 {
				wsBytes = float64(an.DistinctLines()) * 64
			}
			toPaperMB := func(b float64) float64 { return b / p.Scale / (1 << 20) }
			ws := toPaperMB(wsBytes)
			rows[w] = ProjectionRow{
				Workload:          names[w],
				Cores:             cores,
				WorkingSetPaperMB: ws,
				DistinctPaperMB:   toPaperMB(float64(an.DistinctLines()) * 64),
				WantsDRAMCache:    ws > dramThresholdPaperMB,
			}
		}}}
}

// Projection128 runs ProjectionExhibits.
func Projection128(names []string, p workloads.Params, cores int, opts ...RunOption) ([]ProjectionRow, error) {
	rows, ex := ProjectionExhibits(names, p, cores)
	return runTable(rows, ex, opts)
}

// LLCOrgRow compares the shared LLC organization against private
// per-core slices of the same total capacity.
type LLCOrgRow struct {
	Workload    string
	SharedMPKI  float64
	PrivateMPKI float64
}

// LLCOrgExhibits declares the shared-vs-private study: the selected
// workloads (nil names = all eight) on the given core count (default 8)
// with the same total LLC capacity (default 32 MB paper-equivalent)
// organized two ways, one shared cache (the paper's Dragonhead
// configuration, an LLCs row the planner answers — Figure 4's 32 MB
// point when both run) and per-core private slices snooping the same
// execution. Shared wins for the shared-working-set workloads (one copy
// of the shared structure instead of N); private is competitive only
// for the private-working-set video workloads.
func LLCOrgExhibits(names []string, p workloads.Params, cores int, paperMB int) ([]LLCOrgRow, []Exhibit) {
	p, names = p.WithDefaults(), orAll(names)
	if cores == 0 {
		cores = 8
	}
	if paperMB == 0 {
		paperMB = 32
	}
	llc := cache.Config{
		Name:     fmt.Sprintf("LLC-%dMB", paperMB),
		Size:     scaledCacheBytes(paperMB, p.Scale),
		LineSize: 64,
		Assoc:    LLCAssoc,
	}
	rows := make([]LLCOrgRow, len(names))
	private := make([]*dragonhead.Emulator, len(names))
	return rows, []Exhibit{{Workloads: names, Params: p, Threads: cores, LLCs: []cache.Config{llc},
		Snoopers: func(w int) ([]fsb.Snooper, error) {
			cfg := dragonhead.DefaultConfig(llc)
			cfg.PrivatePerCore = cores
			var err error
			if private[w], err = dragonhead.New(cfg); err != nil {
				return nil, err
			}
			return []fsb.Snooper{private[w]}, nil
		},
		Row: func(w int, a Answer) {
			rows[w] = LLCOrgRow{Workload: names[w], SharedMPKI: a.LLCs[0].MPKI, PrivateMPKI: private[w].MPKI()}
			private[w] = nil
		}}}
}

// SharedVsPrivate runs LLCOrgExhibits.
func SharedVsPrivate(names []string, p workloads.Params, cores int, paperMB int, opts ...RunOption) ([]LLCOrgRow, error) {
	rows, ex := LLCOrgExhibits(names, p, cores, paperMB)
	return runTable(rows, ex, opts)
}

// DRAMCacheRow reports the effect of adding a large DRAM LLC to one
// workload on a large CMP.
type DRAMCacheRow struct {
	Workload string
	// GainSRAMPct is the cycle reduction from an 8 MB-paper SRAM LLC.
	GainSRAMPct float64
	// GainDRAMPct is the cycle reduction from a 256 MB-paper DRAM LLC.
	GainDRAMPct float64
	// L3MissRateDRAM is the DRAM LLC's miss rate (how much of the
	// working set it captured).
	L3MissRateDRAM float64
}

// DRAMCacheExhibits declares the DRAM-LLC study: the selected workloads
// (nil names = all eight) timed on the given core count (default 32)
// three ways — no LLC, a small fast SRAM LLC, and a large slow DRAM LLC
// — all on one execution per workload, reporting the cycle gains. It
// quantifies the paper's conclusion that large DRAM caches serve the
// big-working-set workloads.
func DRAMCacheExhibits(names []string, p workloads.Params, cores int) ([]DRAMCacheRow, []Exhibit) {
	p, names = p.WithDefaults(), orAll(names)
	if cores == 0 {
		cores = 32
	}
	// No L3, then an 8 MB SRAM L3 and a 256 MB DRAM L3 (paper units).
	noL3 := hier.Xeon16(cores, p.Scale, nil)
	sramL3, dramL3 := noL3, noL3
	sramL3.L3 = &cache.Config{Name: "L3-SRAM-8MB", Size: scaledCacheBytes(8, p.Scale), LineSize: 64, Assoc: 16}
	dramL3.L3 = &cache.Config{Name: "L3-DRAM-256MB", Size: scaledCacheBytes(256, p.Scale), LineSize: 64, Assoc: 16}
	sramL3.Lat.L3Hit, dramL3.Lat.L3Hit = 40, 120
	rows := make([]DRAMCacheRow, len(names))
	return rows, []Exhibit{{Workloads: names, Params: p, Threads: cores, Hiers: []hier.Config{noL3, sramL3, dramL3}, Row: func(w int, a Answer) {
		none, sram, dram := a.Hiers[0], a.Hiers[1], a.Hiers[2]
		var missRate float64
		if acc := dram.L3.Accesses; acc > 0 {
			missRate = float64(dram.L3.Misses) / float64(acc)
		}
		rows[w] = DRAMCacheRow{
			Workload:       names[w],
			GainSRAMPct:    (none.Cycles/sram.Cycles - 1) * 100,
			GainDRAMPct:    (none.Cycles/dram.Cycles - 1) * 100,
			L3MissRateDRAM: missRate,
		}
	}}}
}

// DRAMCacheStudy runs DRAMCacheExhibits.
func DRAMCacheStudy(names []string, p workloads.Params, cores int, opts ...RunOption) ([]DRAMCacheRow, error) {
	rows, ex := DRAMCacheExhibits(names, p, cores)
	return runTable(rows, ex, opts)
}
