// Experiment specs: the wire form of one sweep request.
//
// A spec names everything that determines a CombinedSweep's results
// bit-for-bit — workload, dataset parameters, platform shape, the
// geometry grids, the execution engine and the accuracy tier — and
// nothing else: every field is identity, and all of them feed the
// canonical content hash that keys the result cache. A body naming a
// field the spec does not have is rejected, not ignored.

package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// Decode limits: a spec is a small description of work, never bulk
// data, so the bounds are generous for real use and tight for abuse.
const (
	// MaxSpecBytes bounds the request body.
	MaxSpecBytes = 1 << 20
	// MaxSpecConfigs bounds the flattened geometry grid.
	MaxSpecConfigs = 256
	// MaxThreads bounds the virtual core count: the platform's own
	// bound, which the projection studies reach.
	MaxThreads = cache.MaxCores
	// MaxScale bounds the footprint scale (1.0 = paper-sized).
	MaxScale = 4.0
	// maxTenantLen bounds the X-Tenant header.
	maxTenantLen = 64
)

// SweepSpec is one sweep request: the JSON body of POST /v1/sweeps and
// the input of cosim's `sweep` subcommand. Zero values select the
// documented defaults (Normalize makes them explicit).
type SweepSpec struct {
	// Workload is the registry name ("FIMI", "SNP", ...; case-insensitive).
	Workload string `json:"workload"`
	// Seed and Scale are the dataset parameters (workloads.Params).
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale,omitempty"`
	// Platform shapes the virtual CMP.
	Platform PlatformSpec `json:"platform"`
	// Grids are the geometry grids to answer; results mirror them
	// element for element (CombinedSweep's contract).
	Grids [][]ConfigSpec `json:"grids"`
	// Sampling selects the accuracy tier: "off" (default, exact) or
	// "fast" (representative-interval sampling with confidence
	// intervals). It CHANGES the numbers, so it is part of the spec's
	// identity — sampled and exact results never share a cache entry.
	Sampling string `json:"sampling,omitempty"`
}

// PlatformSpec mirrors core.PlatformConfig on the wire.
type PlatformSpec struct {
	// Threads is the virtual core count (0 selects the 8-core SCMP).
	Threads int `json:"threads"`
	// Quantum is the DEX slice in instructions (0 = default).
	Quantum uint64 `json:"quantum,omitempty"`
	// Noise injects host bus noise between slices.
	Noise int `json:"noise,omitempty"`
	// Seed drives the platform's noise generator.
	Seed int64 `json:"seed,omitempty"`
}

// ConfigSpec mirrors cache.Config on the wire.
type ConfigSpec struct {
	Name       string `json:"name,omitempty"`
	SizeBytes  uint64 `json:"size_bytes"`
	LineSize   uint64 `json:"line_size"`
	Assoc      int    `json:"assoc"`
	Repl       string `json:"repl,omitempty"` // "lru" (default) | "fifo" | "random"
	SectorSize uint64 `json:"sector_size,omitempty"`
}

// parseRepl maps the wire vocabulary to a replacement policy.
func parseRepl(s string) (cache.Policy, error) {
	switch strings.ToLower(s) {
	case "", "lru":
		return cache.LRU, nil
	case "fifo":
		return cache.FIFO, nil
	case "random":
		return cache.Random, nil
	default:
		return 0, fmt.Errorf("unknown replacement policy %q (want lru, fifo, or random)", s)
	}
}

// replName renders a policy back into the wire vocabulary.
func replName(p cache.Policy) string { return strings.ToLower(p.String()) }

// DecodeSpec reads, normalizes, and validates one spec from r. The
// decoder is strict — unknown fields, trailing garbage, or any
// validation failure reject the spec with a descriptive error (the
// HTTP layer maps every error to 400; the decoder never panics, which
// FuzzSpecDecode enforces).
func DecodeSpec(r io.Reader) (*SweepSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes+1))
	dec.DisallowUnknownFields()
	spec := &SweepSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after JSON object")
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Normalize fills defaulted fields in place so that behaviorally
// identical specs (zero vs explicit defaults, case-folded names) hash
// identically. Idempotent.
func (s *SweepSpec) Normalize() {
	s.Workload = strings.ToUpper(strings.TrimSpace(s.Workload))
	if s.Scale == 0 {
		s.Scale = workloads.DefaultScale
	}
	if s.Platform.Threads == 0 {
		s.Platform.Threads = 8
	}
	if s.Platform.Quantum == 0 {
		s.Platform.Quantum = softsdv.DefaultQuantum
	}
	if s.Sampling == "" {
		s.Sampling = core.SamplingOff.String()
	}
	s.Sampling = strings.ToLower(s.Sampling)
	for gi := range s.Grids {
		for ci := range s.Grids[gi] {
			c := &s.Grids[gi][ci]
			if p, err := parseRepl(c.Repl); err == nil {
				c.Repl = replName(p)
			}
			if c.Name == "" {
				c.Name = fmt.Sprintf("llc-%dB-%dB-%dw", c.SizeBytes, c.LineSize, c.Assoc)
			}
		}
	}
}

// Validate checks the normalized spec by lowering it.
func (s *SweepSpec) Validate() error {
	_, err := s.lower()
	return err
}

// sweepCall is a spec lowered to CombinedSweep's arguments.
type sweepCall struct {
	name  string
	p     workloads.Params
	pc    core.PlatformConfig
	grids [][]cache.Config
	// opts carry the spec's accuracy tier, so that applied after a
	// caller's options it decides the result.
	opts []core.RunOption
}

// lower checks the normalized spec and converts it into CombinedSweep's
// arguments in one pass, stopping at the first error. It is cheap — no
// datasets are built, no memory proportional to the requested work is
// allocated — so the admission path can run it on every request.
func (s *SweepSpec) lower() (*sweepCall, error) {
	if s.Workload == "" {
		return nil, fmt.Errorf("spec: missing workload")
	}
	if !slices.Contains(registry.Names(), s.Workload) {
		return nil, fmt.Errorf("spec: unknown workload %q (want one of %s)",
			s.Workload, strings.Join(registry.Names(), ", "))
	}
	if !(s.Scale > 0 && s.Scale <= MaxScale) {
		return nil, fmt.Errorf("spec: scale %v out of range (0, %v]", s.Scale, MaxScale)
	}
	if s.Platform.Threads < 1 || s.Platform.Threads > MaxThreads {
		return nil, fmt.Errorf("spec: platform threads %d out of range [1, %d]", s.Platform.Threads, MaxThreads)
	}
	if s.Platform.Noise < 0 || s.Platform.Noise > 1<<20 {
		return nil, fmt.Errorf("spec: platform noise %d out of range [0, %d]", s.Platform.Noise, 1<<20)
	}
	sampling, err := core.ParseSampling(s.Sampling)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if len(s.Grids) == 0 {
		return nil, fmt.Errorf("spec: no geometry grids")
	}
	grids := make([][]cache.Config, len(s.Grids))
	total := 0
	for gi, g := range s.Grids {
		if len(g) == 0 {
			return nil, fmt.Errorf("spec: grid %d is empty", gi)
		}
		total += len(g)
		grids[gi] = make([]cache.Config, len(g))
		for ci, c := range g {
			cfg, err := c.cacheConfig()
			if err == nil {
				err = cfg.Validate()
			}
			if err != nil {
				return nil, fmt.Errorf("spec: grid %d config %d: %w", gi, ci, err)
			}
			grids[gi][ci] = cfg
		}
	}
	if total > MaxSpecConfigs {
		return nil, fmt.Errorf("spec: %d configs exceed the per-sweep limit of %d", total, MaxSpecConfigs)
	}
	return &sweepCall{
		name: s.Workload,
		p:    workloads.Params{Seed: s.Seed, Scale: s.Scale},
		pc: core.PlatformConfig{
			Threads:       s.Platform.Threads,
			Quantum:       s.Platform.Quantum,
			HostNoiseRefs: s.Platform.Noise,
			Seed:          s.Platform.Seed,
		},
		grids: grids,
		opts:  []core.RunOption{core.WithSampling(sampling)},
	}, nil
}

// cacheConfig converts one wire config into the simulator's type.
func (c ConfigSpec) cacheConfig() (cache.Config, error) {
	repl, err := parseRepl(c.Repl)
	if err != nil {
		return cache.Config{}, err
	}
	return cache.Config{
		Name:       c.Name,
		Size:       c.SizeBytes,
		LineSize:   c.LineSize,
		Assoc:      c.Assoc,
		Repl:       repl,
		SectorSize: c.SectorSize,
	}, nil
}

// specIdentity is the canonical content of a spec: every field of it.
type specIdentity struct {
	Workload string         `json:"w"`
	Seed     int64          `json:"s"`
	Scale    float64        `json:"sc"`
	Platform PlatformSpec   `json:"p"`
	Grids    [][]ConfigSpec `json:"g"`
	// Engine is always "auto", the engine every spec ran under when
	// specs could name one: keeping the literal keeps every result-cache
	// key and published spec hash what it was.
	Engine string `json:"e"`
	// Sampling: a sampled result is an estimate and must never be served
	// for an exact request (or vice versa). Omitted when off so
	// pre-sampling cache keys stay stable.
	Sampling string `json:"sm,omitempty"`
}

// Hash returns the canonical content hash of the normalized spec — the
// key of the result cache. Two specs hash equal iff their fields are
// equal after normalization.
func (s *SweepSpec) Hash() string {
	id := specIdentity{
		Workload: s.Workload,
		Seed:     s.Seed,
		Scale:    s.Scale,
		Platform: s.Platform,
		Grids:    s.Grids,
		Engine:   "auto",
	}
	if s.Sampling != core.SamplingOff.String() {
		id.Sampling = s.Sampling
	}
	b, err := json.Marshal(id)
	if err != nil {
		// Marshal of a plain value type cannot fail; keep the signature
		// ergonomic and make any future regression loud.
		panic("server: spec hash: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
