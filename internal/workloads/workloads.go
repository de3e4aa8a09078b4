// Package workloads defines the common contract implemented by the eight
// parallel data-mining applications of the paper (Table 1): SNP, SVM-RFE,
// RSEARCH, FIMI, PLSA, MDS, SHOT, and VIEWTYPE.
//
// Each workload is a real implementation of the underlying algorithm; it
// performs its computation on Go data while reporting every load and
// store — with simulated guest addresses — through the executing
// softsdv.Thread. The contract holds exactly what the pipeline calls:
// Name, Table1 (the paper's Table 1 columns), Category (the Section 4.3
// sharing class the working-set study prints) and Build.
//
// Problem sizes derive from a single Scale knob: Scale=1 reproduces the
// paper's footprints (30 MB-300 MB structures); the default harness
// scale of 1/16 shrinks every structure and, through ScaleCache, every
// modelled cache by the same factor, preserving the position of each
// working-set knee relative to the cache sizes.
package workloads

import (
	"fmt"
	"math"

	"cmpmem/internal/mem"
	"cmpmem/internal/softsdv"
)

// DefaultScale is the harness default: 1/16 of paper-size footprints.
const DefaultScale = 1.0 / 16

// Params control problem sizing for every workload.
type Params struct {
	// Seed makes datasets and any algorithmic tie-breaking deterministic.
	Seed int64
	// Scale is the footprint scale relative to the paper (1.0 = paper).
	Scale float64
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.Scale == 0 {
		p.Scale = DefaultScale
	}
	return p
}

// ScaleInt scales a paper-sized integer dimension, keeping a floor.
func (p Params) ScaleInt(paperSize int, floor int) int {
	v := int(float64(paperSize) * p.Scale)
	if v < floor {
		v = floor
	}
	return v
}

// ScaleCache scales a paper-sized cache capacity by scale, rounded down
// to a power of two (set counts must stay powers of two) and floored.
// Caches follow the footprints both ways: a scale above 1 grows them
// past the paper's sizes. A scale <= 0 means DefaultScale.
func ScaleCache(paperBytes uint64, scale float64, floor uint64) uint64 {
	if scale <= 0 {
		scale = DefaultScale
	}
	target := float64(paperBytes) * scale
	size := floor
	for float64(size*2) <= target {
		size *= 2
	}
	return size
}

// ScaleSqrt scales a dimension by sqrt(Scale), for 2-D structures whose
// footprint must scale linearly while both dimensions shrink.
func (p Params) ScaleSqrt(paperSize int, floor int) int {
	s := p.Scale
	if s <= 0 {
		s = DefaultScale
	}
	v := int(float64(paperSize) * math.Sqrt(s))
	if v < floor {
		v = floor
	}
	return v
}

// Workload is one parallel data-mining application.
type Workload interface {
	// Name is the paper's short name (e.g. "FIMI").
	Name() string
	// Table1 returns the "Parameters" and "Size of Data Input" columns
	// at the configured scale.
	Table1() (params, datasetSize string)
	// Category is the workload's thread-scaling class (Section 4.3).
	Category() SharingCategory
	// Build allocates the workload's datasets and data structures in
	// the given address space (untraced, as dataset loading precedes
	// the measured region) and returns the guest program for the given
	// thread count. sched provides scheduler-integrated barriers.
	Build(sp *mem.Space, sched *softsdv.Scheduler, threads int) (softsdv.Program, error)
}

// SharingCategory classifies thread-scaling behaviour (Section 4.3).
type SharingCategory int

const (
	// SharedWS: all threads share a primary data structure; cache
	// performance does not vary with thread count (SNP, SVM-RFE, MDS,
	// PLSA).
	SharedWS SharingCategory = iota
	// MixedWS: a large shared structure plus per-thread private data;
	// misses grow 20-30% with core doublings (FIMI, RSEARCH).
	MixedWS
	// PrivateWS: threads work on private structures; the working set
	// grows linearly with cores (SHOT, VIEWTYPE).
	PrivateWS
)

// MiB formats a byte count for Table 1.
func MiB(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
