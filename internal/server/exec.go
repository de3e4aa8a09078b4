// Package server is the multi-tenant co-simulation sweep service:
// the serving layer that turns the CLI reproduction into a long-lived
// system many experiments target concurrently.
//
// The paper's operational model already is a service: one SoftSDV
// execution feeds a reprogrammable Dragonhead board, and the expensive
// resource — the captured FSB stream — is shared across every cache
// configuration applied to it. cosimd extends that sharing across
// users: every job on the server draws from one process-wide
// tracestore (single-flight, so N concurrent tenants requesting the
// same workload capture pay for one execution) and pure results are
// memoized in a content-addressed result cache keyed by the canonical
// spec hash, so a repeated experiment costs one map lookup.
//
// The request path is: admission control (bounded queue, 429 +
// Retry-After past the cap) → per-tenant weighted fair queuing (DRR
// over tenant FIFOs, so one greedy tenant cannot starve the rest) →
// a bounded worker pool running CombinedSweep → the shared tracestore
// and result cache. Progress streams to clients over SSE (queued →
// capturing or replaying → per-config completion → done), fed by the
// core progress hooks; /metrics exposes the cosimd_* counters alongside
// the simulator's own. Each job holds its request's root span and trace
// ID, and the worker roots the sweep's span tree under that span with
// core.WithParentSpan (trace.go).
package server

import (
	"slices"

	"cmpmem/internal/core"
)

// SweepResult is the JSON result of one sweep: CombinedSweep's return
// values under stable names, plus the identity that produced them. The
// server stores exactly this marshaled form in the result cache, and
// cosim's `sweep` subcommand prints the same — so server and CLI
// output diff byte-for-byte for the same spec.
type SweepResult struct {
	Workload string `json:"workload"`
	SpecHash string `json:"spec_hash"`
	// Engine is always "auto": every sweep plans. It stays in the JSON
	// so a result's bytes are what they were when specs named an engine.
	Engine string `json:"engine"`
	// Summary is the execution-side totals (identical whether the run
	// was captured live or replayed from the store).
	Summary core.RunSummary `json:"summary"`
	// Grids mirror the request's geometry grids element for element.
	Grids [][]core.LLCResult `json:"grids"`
}

// ExecuteSpec answers one normalized spec with a direct CombinedSweep
// call. It is the single execution path shared by the server's workers
// and the cosim CLI's `sweep` subcommand — the parity that lets CI
// diff a served result against a locally computed one. Options passed
// by the caller (trace store, telemetry, progress hooks, server-side
// parallelism defaults) are applied first; the spec's sampling mode is
// applied last and wins.
func ExecuteSpec(spec *SweepSpec, opts ...core.RunOption) (*SweepResult, error) {
	call, err := spec.lower()
	if err != nil {
		return nil, err
	}
	results, sum, err := core.CombinedSweep(call.name, call.p, call.pc, call.grids, slices.Concat(opts, call.opts)...)
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Workload: call.name,
		SpecHash: spec.Hash(),
		Engine:   "auto",
		Summary:  sum,
		Grids:    results,
	}, nil
}
