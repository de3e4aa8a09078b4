// Verification orchestration: run the internal/verify oracles,
// invariants, and fault injectors against real workload executions.
//
// This is the `cosim -verify` backend. Each workload executes once
// (memoized in a local trace store) and is then replayed through every
// checker; two extra live runs per workload pin the serial == batched
// == replay delivery equality. The checks are exact — every comparison
// demands zero delta, because everything here is deterministic.

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/oracle"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/verify"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// VerifyConfig selects what VerifyAll covers.
type VerifyConfig struct {
	// Workloads restricts the sweep (nil = every registered workload).
	Workloads []string
	// Threads is the platform core count (0 = 4: enough to exercise the
	// multi-threaded interleave without tripling runtimes).
	Threads int
}

// verifyPaperMB are the paper-unit LLC sizes the oracle cross-checks
// (a subset of the Figure 4 sweep: small, knee, large).
var verifyPaperMB = []int{4, 16, 64}

// verifyAssocs are the associativities checked at every size.
var verifyAssocs = []int{8, 16}

// verifyConfigs builds the oracle-checked LLC grid at the given scale.
func verifyConfigs(scale float64) []cache.Config {
	out := make([]cache.Config, 0, len(verifyPaperMB)*len(verifyAssocs))
	for _, mb := range verifyPaperMB {
		for _, assoc := range verifyAssocs {
			out = append(out, cache.Config{
				Name:     fmt.Sprintf("LLC-%dMB/%dway", mb, assoc),
				Size:     scaledCacheBytes(mb, scale),
				LineSize: 64,
				Assoc:    assoc,
			})
		}
	}
	return out
}

// VerifyAll runs the full verification suite and returns the report.
// An error is returned only for infrastructure failures (unknown
// workload, broken run); check failures land in the report.
func VerifyAll(p workloads.Params, vc VerifyConfig, opts ...RunOption) (*verify.Report, error) {
	p = p.WithDefaults()
	names := vc.Workloads
	if len(names) == 0 {
		names = registry.Names()
	}
	threads := vc.Threads
	if threads == 0 {
		threads = 4
	}
	pc := PlatformConfig{Threads: threads, Seed: p.Seed}

	// One shared in-memory store: each workload executes once, every
	// checker replays.
	store := tracestore.New(0, "")

	rep := &verify.Report{}
	for _, name := range names {
		if err := verifyWorkload(rep, name, p, pc, store, opts); err != nil {
			return nil, fmt.Errorf("verify %s: %w", name, err)
		}
	}
	if err := verifyConservation(rep, names[0], p, pc); err != nil {
		return nil, fmt.Errorf("verify conservation: %w", err)
	}
	if err := verifyPlanner(rep, names[0], p, pc, store); err != nil {
		return nil, fmt.Errorf("verify planner: %w", err)
	}
	if err := verifyFaults(rep, names[0], p, pc); err != nil {
		return nil, fmt.Errorf("verify faults: %w", err)
	}
	return rep, nil
}

// verifyWorkload runs the per-workload legs: the oracle differential,
// the sampled tier's intervals, the bank-interleave neutrality, and the
// delivery equivalence. The intra-run sharded path has no leg: no user
// surface selects it, and TestSerialShardedEquivalence covers it.
func verifyWorkload(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, store *tracestore.Store, opts []RunOption) error {
	cfgs := verifyConfigs(p.Scale)
	ro := applyOpts(opts)
	ro.store = store

	// --- Leg 1: differential oracle over the replayed stream ----------
	orc, err := oracle.New(64)
	if err != nil {
		return err
	}
	emus := make([]*dragonhead.Emulator, len(cfgs))
	refs := make([]*verify.RefCache, len(cfgs))
	snoopers := []fsb.Snooper{orc}
	caches := make([]*cache.Cache, len(cfgs))
	for i, llc := range cfgs {
		if err := orc.AddConfig(llc); err != nil {
			return err
		}
		dcfg, err := bankedConfig(llc)
		if err != nil {
			return err
		}
		if emus[i], err = dragonhead.New(dcfg); err != nil {
			return err
		}
		if caches[i], err = cache.New(llc); err != nil {
			return err
		}
		if refs[i], err = verify.NewRefCache(llc.Size, llc.LineSize, llc.Assoc); err != nil {
			return err
		}
		snoopers = append(snoopers, emus[i],
			&verify.BusAdapter{Target: caches[i]}, &verify.BusAdapter{Target: refs[i]})
	}
	replayDigest := fsb.NewStreamDigest()
	snoopers = append(snoopers, replayDigest)
	// Capture alone first: leg 3's serial-vs-replay finding must compare
	// a stored stream, not the capturing execution's bus.
	if _, _, err := ro.openTrace(name, p, pc, nil); err != nil {
		return err
	}
	hits := store.Stats().Hits
	replaySum, err := runNamed(name, p, pc, ro, snoopers)
	if err != nil {
		return err
	}
	if store.Stats().Hits != hits+1 {
		return fmt.Errorf("the replay leg was not a store hit")
	}

	for i, llc := range cfgs {
		st := emus[i].Stats()
		id := name + "/" + llc.Name

		want, err := orc.MissesForConfig(llc)
		if err != nil {
			return err
		}
		if st.Misses == want {
			rep.Passf("oracle/"+id, "%d misses, exact", st.Misses)
		} else {
			rep.Failf("oracle/"+id, "dragonhead %d misses, oracle predicts %d (delta %+d)",
				st.Misses, want, int64(st.Misses)-int64(want))
		}
		rep.Check("oracle-accesses/"+id, verify.Conserve("line requests", st.Accesses, orc.Accesses()))

		// The monolithic cache and the naive reference cache saw the
		// same stream through the same AF gating: full differential.
		mono := caches[i].Stats()
		rep.Check("banked-vs-monolithic/"+id, verify.DiffStats("banked vs monolithic", st, *mono))
		if refs[i].Misses() == want {
			rep.Passf("refcache/"+id, "%d misses, exact", refs[i].Misses())
		} else {
			rep.Failf("refcache/"+id, "reference cache %d misses, oracle predicts %d", refs[i].Misses(), want)
		}
		rep.Check("state/"+id, verify.DiffSnapshots(caches[i].Snapshot(), refs[i].Snapshot()))

		banks := make([]cache.Stats, emus[i].Banks())
		for b := range banks {
			banks[b] = emus[i].BankStats(b)
		}
		rep.Check("bank-partition/"+id, verify.BankPartition(st, banks))
	}

	// LRU inclusion along both axes the oracle proves: associativity at
	// fixed sets (Mattson), and the Figure 4 size axis at fixed assoc.
	for _, assoc := range verifyAssocs {
		var points []verify.MissPoint
		for _, mb := range verifyPaperMB {
			llc := cache.Config{Size: scaledCacheBytes(mb, p.Scale), LineSize: 64, Assoc: assoc}
			m, err := orc.MissesForConfig(llc)
			if err != nil {
				return err
			}
			points = append(points, verify.MissPoint{
				Label: fmt.Sprintf("%dMB/%dway", mb, assoc), Capacity: llc.Size, Misses: m})
		}
		rep.Check(fmt.Sprintf("lru-inclusion/%s/%dway", name, assoc), verify.MonotoneMisses(points))
	}

	// --- Leg 1b: sampled fast tier graded against the oracle -----------
	// The approximate tier's whole contract is its error bound: for every
	// geometry, the exact miss count (known here from the oracle) must
	// fall inside the confidence interval the sampled sweep reports.
	sres, _, err := LLCSweep(name, p, pc, cfgs,
		append(append([]RunOption{}, opts...), WithTraceReuse(store), WithSampling(SamplingFast))...)
	if err != nil {
		return err
	}
	for i, llc := range cfgs {
		want, err := orc.MissesForConfig(llc)
		if err != nil {
			return err
		}
		r := sres[i]
		id := fmt.Sprintf("sampling/%s/%s", name, llc.Name)
		switch {
		case r.Sampling == nil:
			rep.Failf(id, "sampled sweep returned no sampling record")
		case want < r.Sampling.MissLow || want > r.Sampling.MissHigh:
			rep.Failf(id, "exact %d misses outside reported CI [%d, %d] (estimate %d, %d/%d refs replayed)",
				want, r.Sampling.MissLow, r.Sampling.MissHigh, r.Stats.Misses,
				r.Sampling.ReplayedRefs, r.Sampling.TotalRefs)
		case r.Sampling.Exact && r.Stats.Misses != want:
			rep.Failf(id, "exact-fallback plan reports %d misses, oracle predicts %d", r.Stats.Misses, want)
		default:
			rep.Passf(id, "estimate %d, exact %d in CI [%d, %d] (%d/%d refs replayed)",
				r.Stats.Misses, want, r.Sampling.MissLow, r.Sampling.MissHigh,
				r.Sampling.ReplayedRefs, r.Sampling.TotalRefs)
		}
	}

	// --- Leg 2: bank-interleave neutrality -----------------------------
	// The same stream through 1, 2, and 4 CC banks must be
	// indistinguishable (the banked mapping is an exact partition of the
	// monolithic set space).
	neutral := cfgs[len(cfgs)-1] // largest grid entry: most sets to split
	neutralSets := neutral.Size / neutral.LineSize / uint64(neutral.Assoc)
	banked, err := bankedConfig(neutral)
	if err != nil {
		return err
	}
	var variants []*dragonhead.Emulator
	var vsnoop []fsb.Snooper
	for _, banks := range []int{1, 2, 4} {
		if uint64(banks) > neutralSets {
			continue // cannot split further than one set per bank
		}
		dcfg := banked
		dcfg.Banks = banks
		e, err := dragonhead.New(dcfg)
		if err != nil {
			return err
		}
		variants = append(variants, e)
		vsnoop = append(vsnoop, e)
	}
	if _, err := runNamed(name, p, pc, ro, vsnoop); err != nil {
		return err
	}
	base := variants[0].Stats()
	for _, e := range variants[1:] {
		rep.Check(fmt.Sprintf("bank-neutrality/%s/%dbanks", name, e.Banks()),
			verify.DiffStats(fmt.Sprintf("1 bank vs %d banks", e.Banks()), base, e.Stats()))
	}

	// --- Leg 3: serial == batched == replay ----------------------------
	rep.Merge(verifyDelivery(name, p, pc, replaySum, replayDigest, opts))
	return nil
}

// verifyDelivery is the reusable delivery-equality checker: the same
// run delivered live in full batches to one snooper (synchronously on
// one processor, pipelined on more), live in small batches beside a
// second snooper, and by store replay must produce one digest, one
// event count, and one run summary. replaySum/replayDigest come from a
// store-served run the caller already made.
func verifyDelivery(name string, p workloads.Params, pc PlatformConfig, replaySum RunSummary, replayDigest *fsb.StreamDigest, opts []RunOption) *verify.Report {
	rep := &verify.Report{}
	run := func(ro runOpts, beside ...fsb.Snooper) (RunSummary, *fsb.StreamDigest, error) {
		d := fsb.NewStreamDigest()
		sum, err := runNamed(name, p, pc, ro, append([]fsb.Snooper{d}, beside...))
		return sum, d, err
	}
	serialRO := applyOpts(opts)
	serialRO.store, serialRO.batch = nil, 0
	serialSum, serialDigest, err := run(serialRO)
	if err != nil {
		rep.Failf("delivery/"+name, "serial live run failed: %v", err)
		return rep
	}
	batchRO := serialRO
	batchRO.batch = 64 // small batches force many publishes — worst case
	batchSum, batchDigest, err := run(batchRO, fsb.NewStreamDigest())
	if err != nil {
		rep.Failf("delivery/"+name, "batched live run failed: %v", err)
		return rep
	}

	check := func(mode string, sum RunSummary, d *fsb.StreamDigest) {
		id := fmt.Sprintf("delivery/%s/serial-vs-%s", name, mode)
		switch {
		case sum != serialSum:
			rep.Failf(id, "run summaries diverge: %+v != %+v", sum, serialSum)
		case d.Sum() != serialDigest.Sum() || d.Events() != serialDigest.Events():
			rep.Failf(id, "stream digest %#x/%d events != %#x/%d",
				d.Sum(), d.Events(), serialDigest.Sum(), serialDigest.Events())
		default:
			rep.Passf(id, "digest %#x over %d events", d.Sum(), d.Events())
		}
	}
	check("batched", batchSum, batchDigest)
	check("replay", replaySum, replayDigest)
	return rep
}

// verifyConservation runs one live sweep with a private telemetry
// registry and checks that every derived total adds up: the manifest
// mirrors the RunSummary and per-LLC results bit-for-bit, and the
// bus/emulator counters equal the API-visible totals.
func verifyConservation(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig) error {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	sink := telemetry.NewSink(reg, telemetry.NewManifestWriter(&buf), nil)

	llcs := verifyConfigs(p.Scale)[:2]
	results, sum, err := LLCSweep(name, p, pc, llcs, WithTelemetry(sink))
	if err != nil {
		return err
	}

	var m telemetry.Manifest
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
		return fmt.Errorf("parsing manifest: %w", err)
	}
	if m.Summary == nil {
		rep.Failf("manifest/"+name, "manifest has no summary block")
		return nil
	}
	manifestTotals := RunSummary{Workload: sum.Workload, Threads: sum.Threads,
		Instructions: m.Summary.Instructions, Loads: m.Summary.Loads,
		Stores: m.Summary.Stores, BusEvents: m.Summary.BusEvents}
	if manifestTotals == sum {
		rep.Passf("manifest-summary/"+name, "totals mirror RunSummary")
	} else {
		rep.Failf("manifest-summary/"+name, "manifest %+v != summary %+v", *m.Summary, sum)
	}
	if len(m.LLCs) != len(results) {
		rep.Failf("manifest-llcs/"+name, "%d manifest records != %d results", len(m.LLCs), len(results))
	} else {
		ok := true
		for i, r := range results {
			lr := m.LLCs[i]
			if lr.Accesses != r.Stats.Accesses || lr.Misses != r.Stats.Misses || lr.MPKI != r.MPKI {
				rep.Failf("manifest-llcs/"+name, "record %d: %+v != result accesses=%d misses=%d mpki=%g",
					i, lr, r.Stats.Accesses, r.Stats.Misses, r.MPKI)
				ok = false
			}
		}
		if ok {
			rep.Passf("manifest-llcs/"+name, "%d LLC records bit-match results", len(results))
		}
	}

	snap := reg.Snapshot()
	rep.Check("counter/fsb_events/"+name,
		verify.Conserve("fsb_events_total", snap.Counters["fsb_events_total"], sum.BusEvents))
	var ccAcc, ccMiss, wantAcc, wantMiss uint64
	for n, v := range snap.Counters {
		if !strings.HasPrefix(n, "dragonhead_cc") {
			continue
		}
		if strings.HasSuffix(n, "_accesses_total") {
			ccAcc += v
		} else if strings.HasSuffix(n, "_misses_total") {
			ccMiss += v
		}
	}
	for _, r := range results {
		wantAcc += r.Stats.Accesses
		wantMiss += r.Stats.Misses
	}
	rep.Check("counter/cc_accesses/"+name, verify.Conserve("dragonhead CC accesses", ccAcc, wantAcc))
	rep.Check("counter/cc_misses/"+name, verify.Conserve("dragonhead CC misses", ccMiss, wantMiss))

	return nil
}

// verifyPlanner is the sweep planner's verification gate: the paper's
// combined CacheSweep + LineSweep grid executed through the planner
// must be bit-identical — full Stats, the per-sample CB series,
// instruction totals, MPKI, and the AF ignore count — to the LLCSweep
// emulation sweeps over the same memoized trace. It runs two
// legs: the default planner (EngineAuto) over both grids, and the
// strict planner (EngineOracle) over the cache sweep alone, since
// strict mode refuses the line-size grid by design.
func verifyPlanner(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, store *tracestore.Store) error {
	grids := [][]cache.Config{CacheSweepConfigs(p.Scale), LineSweepConfigs(p.Scale)}
	legacy := make([][]LLCResult, len(grids))
	var legacySum RunSummary
	for gi, grid := range grids {
		res, sum, err := LLCSweep(name, p, pc, grid, WithTraceReuse(store))
		if err != nil {
			return err
		}
		legacy[gi], legacySum = res, sum
	}
	legs := []struct {
		prefix string
		engine Engine
		grids  int
	}{
		{"planner", EngineAuto, len(grids)},
		{"planner-strict", EngineOracle, 1},
	}
	for _, leg := range legs {
		planned, plannedSum, err := CombinedSweep(name, p, pc, grids[:leg.grids], WithTraceReuse(store), WithEngine(leg.engine))
		if err != nil {
			return err
		}
		if plannedSum == legacySum {
			rep.Passf(leg.prefix+"-summary/"+name, "run summary identical under %s", leg.engine)
		} else {
			rep.Failf(leg.prefix+"-summary/"+name, "planner summary %+v != emulation %+v", plannedSum, legacySum)
		}
		for gi, grid := range grids[:leg.grids] {
			for i, llc := range grid {
				checkPlanned(rep, fmt.Sprintf("%s/%s/%s", leg.prefix, name, llc.Name), legacy[gi][i], planned[gi][i])
			}
		}
	}
	return nil
}

// checkPlanned records whether one planned result is bit-identical to
// its emulated reference.
func checkPlanned(rep *verify.Report, id string, want, got LLCResult) {
	if err := verify.DiffStats("planner vs emulation", want.Stats, got.Stats); err != nil {
		rep.Check(id, err)
		return
	}
	switch {
	case got.Instructions != want.Instructions || got.MPKI != want.MPKI || got.Ignored != want.Ignored:
		rep.Failf(id, "inst/MPKI/ignored diverge: %d/%g/%d != %d/%g/%d",
			got.Instructions, got.MPKI, got.Ignored,
			want.Instructions, want.MPKI, want.Ignored)
	case !slices.Equal(got.Samples, want.Samples):
		rep.Failf(id, "CB sample series diverges (%d vs %d samples)",
			len(got.Samples), len(want.Samples))
	case len(want.Samples) == 0:
		// A stream shorter than one CB sample period legitimately
		// yields no samples; the totals above are still exact.
		rep.Passf(id, "stats and MPKI %.4g bit-identical (stream shorter than one CB sample period)",
			want.MPKI)
	default:
		rep.Passf(id, "stats, %d CB samples, MPKI %.4g all bit-identical",
			len(want.Samples), want.MPKI)
	}
}

// verifyFaults exercises the injected-failure paths end to end: spill
// I/O corruption must force a recompute that yields the identical
// stream, and a lossy snooper must be detectable by digest and event
// count.
func verifyFaults(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig) error {
	run := func(store *tracestore.Store) (RunSummary, *fsb.StreamDigest, *tracestore.Stats, error) {
		d := fsb.NewStreamDigest()
		ro := runOpts{store: store}
		sum, err := runNamed(name, p, pc, ro, []fsb.Snooper{d})
		if err != nil {
			return RunSummary{}, nil, nil, err
		}
		st := store.Stats()
		return sum, d, &st, nil
	}

	// Baseline: capture + spill through the fault filesystem (no faults
	// armed), then serve a second store from the spill file.
	ffs := verify.NewFaultFS()
	s1 := tracestore.New(0, "spill")
	s1.SetFS(ffs)
	cleanSum, cleanDigest, _, err := run(s1)
	if err != nil {
		return err
	}
	files := ffs.Files()
	if len(files) != 1 {
		rep.Failf("fault/spill-written/"+name, "expected 1 spill file, have %d", len(files))
		return nil
	}
	rep.Passf("fault/spill-written/"+name, "captured and spilled %d bus events", cleanSum.BusEvents)

	s2 := tracestore.New(0, "spill")
	s2.SetFS(ffs)
	diskSum, diskDigest, diskStats, err := run(s2)
	if err != nil {
		return err
	}
	if diskStats.DiskHits == 1 && diskSum == cleanSum && diskDigest.Sum() == cleanDigest.Sum() {
		rep.Passf("fault/spill-replay/"+name, "disk-served stream bit-identical (digest %#x)", diskDigest.Sum())
	} else {
		rep.Failf("fault/spill-replay/"+name, "disk hits=%d, sum match=%v, digest match=%v",
			diskStats.DiskHits, diskSum == cleanSum, diskDigest.Sum() == cleanDigest.Sum())
	}

	// Corrupt the spill mid-file: the store must fall back to
	// re-execution and still produce the identical stream.
	ffs.CorruptRead = true
	ffs.CorruptOff = 200
	ffs.CorruptMask = 0x20
	s3 := tracestore.New(0, "spill")
	s3.SetFS(ffs)
	corruptSum, corruptDigest, corruptStats, err := run(s3)
	if err != nil {
		return err
	}
	switch {
	case corruptStats.DiskHits != 0:
		rep.Failf("fault/spill-corrupt/"+name, "corrupted spill was served as a disk hit")
	case corruptSum != cleanSum || corruptDigest.Sum() != cleanDigest.Sum():
		rep.Failf("fault/spill-corrupt/"+name, "recomputed stream diverges from the clean run")
	default:
		rep.Passf("fault/spill-corrupt/"+name, "corrupt spill rejected; recompute bit-identical")
	}

	// Open failure: same graceful degradation.
	ffs.CorruptRead = false
	ffs.FailOpen = true
	s4 := tracestore.New(0, "spill")
	s4.SetFS(ffs)
	openSum, openDigest, openStats, err := run(s4)
	if err != nil {
		return err
	}
	if openStats.DiskHits == 0 && openSum == cleanSum && openDigest.Sum() == cleanDigest.Sum() {
		rep.Passf("fault/spill-open-fail/"+name, "open failure degraded to recompute")
	} else {
		rep.Failf("fault/spill-open-fail/"+name, "open failure not handled gracefully")
	}

	// Lossy delivery: a snooper that silently drops events must be
	// caught by the digest and by event-count conservation.
	lossTarget := fsb.NewStreamDigest()
	drop := &verify.DropSnooper{Inner: lossTarget, DropEvery: 101}
	witness := fsb.NewStreamDigest()
	if _, err := runNamed(name, p, pc, runOpts{}, []fsb.Snooper{drop, witness}); err != nil {
		return err
	}
	switch {
	case drop.Dropped() == 0:
		rep.Failf("fault/drop-detect/"+name, "drop injector never fired")
	case lossTarget.Sum() == witness.Sum():
		rep.Failf("fault/drop-detect/"+name, "digest failed to expose %d dropped events", drop.Dropped())
	case lossTarget.Events()+drop.Dropped() != witness.Events():
		rep.Failf("fault/drop-detect/"+name, "event counts do not reconcile: %d delivered + %d dropped != %d",
			lossTarget.Events(), drop.Dropped(), witness.Events())
	default:
		rep.Passf("fault/drop-detect/"+name, "%d dropped events exposed by digest and count", drop.Dropped())
	}
	return nil
}
