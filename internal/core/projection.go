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
	"cmpmem/internal/trace"
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

// Projection128 measures the selected workloads' working sets (nil
// names = all eight) on very large CMPs (default 128 cores) with
// single-pass stack-distance analysis, one capture run per pool worker.
func Projection128(names []string, p workloads.Params, cores int, opts ...RunOption) ([]ProjectionRow, error) {
	p = p.WithDefaults()
	if cores == 0 {
		cores = 128
	}
	return forEachWorkload(names, applyOpts(opts), func(name string) (ProjectionRow, error) {
		an := stackdist.New(64, 1<<22)
		_, err := TraceCapture(name, p, PlatformConfig{Threads: cores, Seed: p.Seed},
			func(r trace.Ref) { an.Record(r.Addr) }, opts...)
		if err != nil {
			return ProjectionRow{}, fmt.Errorf("projection %s: %w", name, err)
		}
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
		return ProjectionRow{
			Workload:          name,
			Cores:             cores,
			WorkingSetPaperMB: ws,
			DistinctPaperMB:   toPaperMB(float64(an.DistinctLines()) * 64),
			WantsDRAMCache:    ws > dramThresholdPaperMB,
		}, nil
	})
}

// LLCOrgRow compares the shared LLC organization against private
// per-core slices of the same total capacity.
type LLCOrgRow struct {
	Workload    string
	SharedMPKI  float64
	PrivateMPKI float64
}

// SharedVsPrivate runs the selected workloads (nil names = all eight)
// on the given core count with the same total LLC capacity organized
// two ways: one shared cache (the paper's Dragonhead configuration) vs
// per-core private slices. Both emulators snoop the same execution.
// Shared wins for the
// shared-working-set workloads (one copy of the shared structure
// instead of N); private is competitive only for the private-working-
// set video workloads.
func SharedVsPrivate(names []string, p workloads.Params, cores int, paperMB int, opts ...RunOption) ([]LLCOrgRow, error) {
	p = p.WithDefaults()
	ro := applyOpts(opts)
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
	return forEachWorkload(names, ro, func(name string) (LLCOrgRow, error) {
		shared, err := dragonhead.New(dragonhead.DefaultConfig(llc))
		if err != nil {
			return LLCOrgRow{}, err
		}
		privCfg := dragonhead.DefaultConfig(llc)
		privCfg.PrivatePerCore = cores
		private, err := dragonhead.New(privCfg)
		if err != nil {
			return LLCOrgRow{}, err
		}
		if _, err := runNamed(name, p, PlatformConfig{Threads: cores, Seed: p.Seed}, ro,
			[]fsb.Snooper{shared, private}); err != nil {
			return LLCOrgRow{}, fmt.Errorf("llc organization %s: %w", name, err)
		}
		return LLCOrgRow{
			Workload:    name,
			SharedMPKI:  shared.MPKI(),
			PrivateMPKI: private.MPKI(),
		}, nil
	})
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

// DRAMCacheStudy times the selected workloads (nil names = all eight)
// on the given core count three ways — no LLC, a small fast SRAM LLC,
// and a large slow DRAM LLC — all on one execution per workload, and
// reports the cycle gains. It
// quantifies the paper's conclusion that large DRAM caches serve the
// big-working-set workloads.
func DRAMCacheStudy(names []string, p workloads.Params, cores int, opts ...RunOption) ([]DRAMCacheRow, error) {
	p = p.WithDefaults()
	if cores == 0 {
		cores = 32
	}
	// No L3, then an 8 MB SRAM L3 and a 256 MB DRAM L3 (paper units).
	noL3 := hier.Xeon16(cores, p.Scale, nil)
	sramL3, dramL3 := noL3, noL3
	sramL3.L3 = &cache.Config{Name: "L3-SRAM-8MB", Size: scaledCacheBytes(8, p.Scale), LineSize: 64, Assoc: 16}
	dramL3.L3 = &cache.Config{Name: "L3-DRAM-256MB", Size: scaledCacheBytes(256, p.Scale), LineSize: 64, Assoc: 16}
	sramL3.Lat.L3Hit, dramL3.Lat.L3Hit = 40, 120
	hcs := []hier.Config{noL3, sramL3, dramL3}

	return forEachWorkload(names, applyOpts(opts), func(name string) (DRAMCacheRow, error) {
		res, _, err := RunHier(name, p, PlatformConfig{Threads: cores, Seed: p.Seed}, hcs, opts...)
		if err != nil {
			return DRAMCacheRow{}, fmt.Errorf("dram study %s: %w", name, err)
		}
		none, sram, dram := res[0], res[1], res[2]
		var missRate float64
		if acc := dram.L3.Accesses; acc > 0 {
			missRate = float64(dram.L3.Misses) / float64(acc)
		}
		return DRAMCacheRow{
			Workload:       name,
			GainSRAMPct:    (none.Cycles/sram.Cycles - 1) * 100,
			GainDRAMPct:    (none.Cycles/dram.Cycles - 1) * 100,
			L3MissRateDRAM: missRate,
		}, nil
	})
}
