// Package prefetch implements the stride-based hardware prefetcher used
// in the Figure 8 study. It mirrors the behaviour the paper attributes
// to the Xeon platform: per-core stream detectors that recognize constant
// strides in forward and backward directions and, once confident, run a
// configurable number of lines ahead of the demand stream. A Prefetcher
// serves one core; a multi-core model builds one per core.
package prefetch

import (
	"fmt"

	"cmpmem/internal/mem"
)

// Config tunes the prefetcher.
type Config struct {
	// TableSize is the number of stream-detector entries.
	TableSize int
	// Confidence is how many consecutive constant-stride accesses are
	// required before prefetches are issued.
	Confidence int
	// Degree is how many lines ahead to prefetch once confident.
	Degree int
	// LineSize is the cache line size prefetches are issued at.
	LineSize uint64
	// RegionBits selects the detector-indexing granularity: accesses in
	// the same 1<<RegionBits byte region train the same entry. 12 (4 KiB
	// pages) approximates PC-less region-based detection.
	RegionBits uint
}

// DefaultConfig matches a modest front-side-bus stride prefetcher.
func DefaultConfig(lineSize uint64) Config {
	return Config{
		TableSize:  16,
		Confidence: 2,
		Degree:     2,
		LineSize:   lineSize,
		RegionBits: 12,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TableSize <= 0 {
		return fmt.Errorf("prefetch: table size must be positive, got %d", c.TableSize)
	}
	if c.Confidence < 1 {
		return fmt.Errorf("prefetch: confidence must be >= 1, got %d", c.Confidence)
	}
	if c.Degree < 1 {
		return fmt.Errorf("prefetch: degree must be >= 1, got %d", c.Degree)
	}
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("prefetch: line size %d is not a power of two", c.LineSize)
	}
	return nil
}

// entry is one stream detector.
type entry struct {
	valid      bool
	region     uint64
	lastLine   int64
	stride     int64
	confidence int
	lru        uint64
}

// Stats counts prefetcher activity.
type Stats struct {
	// Trainings is the number of accesses observed.
	Trainings uint64
	// Issued is the number of prefetch lines emitted.
	Issued uint64
	// Streams is the number of distinct streams that reached confidence.
	Streams uint64
}

// Prefetcher is one core's stream table.
type Prefetcher struct {
	cfg       Config
	lineShift uint
	table     []entry
	clock     uint64
	stats     Stats
}

// New builds a prefetcher; returns an error for invalid configuration.
func New(cfg Config) (*Prefetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Prefetcher{cfg: cfg, table: make([]entry, cfg.TableSize)}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		p.lineShift++
	}
	return p, nil
}

// Stats returns a copy of the counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

// Config returns the prefetcher's configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

// Train observes one demand access at addr and appends up to
// Degree predicted line addresses to out, returning the extended slice.
// Predictions are line-aligned and strictly ahead of (or behind, for
// negative strides) the demand line.
func (p *Prefetcher) Train(addr mem.Addr, out []mem.Addr) []mem.Addr {
	p.stats.Trainings++
	p.clock++
	line := int64(uint64(addr) >> p.lineShift)
	region := uint64(addr) >> p.cfg.RegionBits
	table := p.table

	// Find the entry for this region, or a victim.
	idx := -1
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range table {
		if table[i].valid && table[i].region == region {
			idx = i
			break
		}
		if table[i].lru < oldest {
			oldest = table[i].lru
			victim = i
		}
	}
	if idx < 0 {
		table[victim] = entry{valid: true, region: region, lastLine: line, stride: 0, confidence: 0, lru: p.clock}
		return out
	}

	e := &table[idx]
	e.lru = p.clock
	stride := line - e.lastLine
	if stride == 0 {
		// Same line again: neither trains nor resets the detector.
		return out
	}
	if stride == e.stride {
		if e.confidence < p.cfg.Confidence {
			e.confidence++
			if e.confidence == p.cfg.Confidence {
				p.stats.Streams++
			}
		}
	} else {
		e.stride = stride
		e.confidence = 1
		if p.cfg.Confidence == 1 {
			p.stats.Streams++
		}
	}
	e.lastLine = line

	if e.confidence >= p.cfg.Confidence {
		for k := 1; k <= p.cfg.Degree; k++ {
			target := line + int64(k)*e.stride
			if target < 0 {
				break
			}
			out = append(out, mem.Addr(uint64(target))<<p.lineShift)
			p.stats.Issued++
		}
	}
	return out
}
