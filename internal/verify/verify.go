// Package verify is the correctness layer of the co-simulation toolkit:
// differential oracles, metamorphic invariants, and fault injection.
//
// The paper's contribution is a set of numbers (Table 2 miss rates, the
// Figure 4-6 MPKI curves, the 8-64 MB working-set knees), so the repo's
// credibility rests on the cache model and the replay/telemetry plumbing
// being provably correct — not merely race-clean and fast. This package
// provides three independent ways to catch a wrong number:
//
//   - Differential oracles. A per-set Mattson stack-distance oracle
//     (internal/oracle's Engine, the sweep planner's analytic engine
//     used here as one more independent model) predicts, from one pass
//     over a trace, the exact LRU miss count of every geometry it
//     tracks, through the Track handles the sweeps read; and a naive
//     O(assoc) reference cache (RefCache) reproduces the full replacement
//     state for bit-exact comparison against internal/cache. Agreement is
//     required to be exact — zero delta — because every model is
//     deterministic.
//
//   - Metamorphic invariants. Executable properties that must hold
//     across sweeps regardless of the numbers themselves: LRU inclusion
//     (misses non-increasing in capacity), bank-interleave neutrality
//     (the AF/CC banked pipeline must equal the monolithic cache for any
//     bank count), delivery-order neutrality (serial == batched == replay,
//     checked via fsb.StreamDigest), and conservation (telemetry counter
//     sums equal the run-summary totals).
//
//   - Fault injection. FaultFS perturbs the trace store's spill I/O,
//     Corrupt flips trace-codec bytes, and DropSnooper loses bus events —
//     and the assertions require the system to either degrade gracefully
//     (re-execute instead of replay) or fail loudly. Returning silently
//     wrong miss counts is the one outcome that must be impossible.
//
// The orchestration that runs these checks over real workloads lives in
// internal/core (core.VerifyAll) and is exposed as `cosim -verify`.
package verify
