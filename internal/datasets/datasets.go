// Package datasets generates the synthetic inputs that stand in for the
// paper's proprietary datasets (Table 1). Each generator is seeded and
// deterministic, and draws from the same distribution family as the real
// data it replaces:
//
//	SNP        — HGBASE haplotypes      → correlated binary site matrix
//	SVM-RFE    — cancer micro-array     → two-class expression matrix
//	RSEARCH    — GenBank sequences      → random nucleotides + planted
//	                                      structural homologs
//	FIMI       — Kosarak click-stream   → power-law transaction database
//	PLSA       — GenBank DNA            → mutated sequence pairs
//	MDS        — web search documents   → Zipf term-frequency sentences
//	SHOT/VIEW  — MPEG-2 sports footage  → synthetic frame stream with
//	                                      shot cuts and playfield regions
//
// What matters for memory characterization is the *shape* of the data
// (matrix dimensions, item skew, sequence lengths, frame sizes), which
// these generators control explicitly.
package datasets

import "math/rand"

// Rng returns the package's canonical deterministic source for a seed.
// All generators accept a seed rather than a shared source so that each
// dataset is independently reproducible.
func Rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
