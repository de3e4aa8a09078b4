// Verification orchestration: run the internal/verify oracles,
// invariants, and fault injectors against real workload executions.
//
// This is the `cosim -verify` backend. Each workload executes once into
// its own trace store and is then replayed through every checker; two
// extra live runs per workload pin the serial == batched == replay
// delivery equality. The checks are exact — every comparison
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
	"cmpmem/internal/par"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/verify"
	"cmpmem/internal/workloads"
)

// verifyThreads is the platform core count: enough to exercise the
// multi-threaded interleave without tripling runtimes.
const verifyThreads = 4

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

// VerifyAll runs the full verification suite over the selected
// workloads (nil = every registered workload) and returns the report.
// Each workload's legs are one task on the WithParallelism pool, and so
// are the conservation and fault legs on the first selected workload,
// which also carries the planner leg; the report merges the tasks in
// selection order, so its bytes do not depend on the pool's width. An
// error is returned only for infrastructure failures (unknown
// workload, broken run); check failures land in the report.
func VerifyAll(names []string, p workloads.Params, opts ...RunOption) (*verify.Report, error) {
	names, p, ro := orAll(names), p.WithDefaults(), applyOpts(opts)
	ro.sampling = SamplingOff // every leg is exact but the sampled one
	pc := PlatformConfig{Threads: verifyThreads, Seed: p.Seed}
	// reps: one per workload, then conservation, planner and faults.
	reps := make([]*verify.Report, len(names)+3)
	for i := range reps {
		reps[i] = &verify.Report{}
	}
	err := par.ForEach(ro.jobs, len(names)+2, func(i int) error {
		switch i - len(names) {
		case 0:
			return wrapErr("verify conservation", verifyConservation(reps[i], names[0], p, pc, ro))
		case 1:
			return wrapErr("verify faults", verifyFaults(reps[i+1], names[0], p, pc, ro))
		}
		// Each workload captures into its own store, so no other task
		// moves the hit count leg 1 reads; the first workload's capture
		// serves the planner leg too.
		wro := ro
		wro.store = tracestore.New(0, "")
		if err := verifyWorkload(reps[i], names[i], p, pc, wro); err != nil {
			return fmt.Errorf("verify %s: %w", names[i], err)
		}
		if i > 0 {
			return nil
		}
		return wrapErr("verify planner", verifyPlanner(reps[len(names)+1], names[0], p, pc, wro))
	})
	if err != nil {
		return nil, err
	}
	rep := reps[0]
	for _, r := range reps[1:] {
		rep.Merge(r)
	}
	return rep, nil
}

// wrapErr prefixes a non-nil err with what failed.
func wrapErr(what string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// verifyWorkload runs the per-workload legs over one capture in
// ro.store: the oracle differential and the bank-interleave neutrality
// on one replay, the sampled tier's intervals, and the delivery
// equivalence. The intra-run sharded path has no leg: no user surface
// selects it, and TestSerialShardedEquivalence covers it.
func verifyWorkload(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, ro runOpts) error {
	cfgs := verifyConfigs(p.Scale)

	// --- Leg 1: differential oracle over the replayed stream ----------
	orc, err := oracle.New(64)
	if err != nil {
		return err
	}
	emus := make([]*dragonhead.Emulator, len(cfgs))
	refs := make([]*verify.RefCache, len(cfgs))
	tracked := make([]*oracle.Tracked, len(cfgs))
	snoopers := []fsb.Snooper{orc}
	caches := make([]*cache.Cache, len(cfgs))
	for i, llc := range cfgs {
		if tracked[i], err = orc.Track(llc); err != nil {
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
	// Leg 2's answerers ride the same replay: the largest grid entry (most
	// sets to split) through 1, 2 and 4 CC banks, leg 1's emulator of it
	// at its own bank count among them.
	neutral := cfgs[len(cfgs)-1]
	neutralSets := neutral.Size / neutral.LineSize / uint64(neutral.Assoc)
	var variants []*dragonhead.Emulator
	for _, banks := range []int{1, 2, 4} {
		if uint64(banks) > neutralSets {
			continue // cannot split further than one set per bank
		}
		e := emus[len(emus)-1]
		if banks != e.Banks() {
			dcfg := dragonhead.DefaultConfig(neutral)
			dcfg.Banks = banks
			if e, err = dragonhead.New(dcfg); err != nil {
				return err
			}
			snoopers = append(snoopers, e)
		}
		variants = append(variants, e)
	}
	replayDigest := fsb.NewStreamDigest()
	snoopers = append(snoopers, replayDigest)
	// Capture alone first: leg 3's serial-vs-replay finding must compare
	// a stored stream, not the capturing execution's bus.
	if _, _, err := ro.openTrace(name, p, pc, nil); err != nil {
		return err
	}
	hits := ro.store.Stats().Hits
	replaySum, err := runNamed(name, p, pc, ro, snoopers)
	if err != nil {
		return err
	}
	if ro.store.Stats().Hits != hits+1 {
		return fmt.Errorf("the replay leg was not a store hit")
	}
	wants := make([]uint64, len(cfgs))
	for i, llc := range cfgs {
		st := emus[i].Stats()
		id := name + "/" + llc.Name

		want := tracked[i].Misses()
		wants[i] = want
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
	for ai, assoc := range verifyAssocs {
		var points []verify.MissPoint
		for mi, mb := range verifyPaperMB {
			k := mi*len(verifyAssocs) + ai // verifyConfigs' order
			points = append(points, verify.MissPoint{
				Label: fmt.Sprintf("%dMB/%dway", mb, assoc), Capacity: cfgs[k].Size, Misses: wants[k]})
		}
		rep.Check(fmt.Sprintf("lru-inclusion/%s/%dway", name, assoc), verify.MonotoneMisses(points))
	}

	// --- Leg 1b: sampled fast tier graded against the oracle -----------
	// The approximate tier's whole contract is its error bound: for every
	// geometry, the exact miss count (known here from the oracle) must
	// fall inside the confidence interval the sampled sweep reports.
	sro := ro
	sro.sampling = SamplingFast
	sres, _, _, err := sweep(name, p, pc, [][]cache.Config{cfgs}, nil, nil, sro)
	if err != nil {
		return err
	}
	for i, llc := range cfgs {
		want, r := wants[i], sres[i]
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
	base := variants[0].Stats()
	for _, e := range variants[1:] {
		rep.Check(fmt.Sprintf("bank-neutrality/%s/%dbanks", name, e.Banks()),
			verify.DiffStats(fmt.Sprintf("1 bank vs %d banks", e.Banks()), base, e.Stats()))
	}

	// --- Leg 3: serial == batched == replay ----------------------------
	verifyDelivery(rep, name, p, pc, replaySum, replayDigest, ro)
	return nil
}

// verifyDelivery is the delivery-equality checker: the same run
// delivered live in full batches to one snooper (synchronously on one
// processor, pipelined on more), live in small batches beside a second
// snooper, and by store replay must produce one digest, one event
// count, and one run summary. replaySum/replayDigest come from a
// store-served run the caller already made.
func verifyDelivery(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, replaySum RunSummary, replayDigest *fsb.StreamDigest, ro runOpts) {
	run := func(ro runOpts, beside ...fsb.Snooper) (RunSummary, *fsb.StreamDigest, error) {
		d := fsb.NewStreamDigest()
		sum, err := runNamed(name, p, pc, ro, append([]fsb.Snooper{d}, beside...))
		return sum, d, err
	}
	serialRO := ro
	serialRO.store, serialRO.batch = nil, 0
	serialSum, serialDigest, err := run(serialRO)
	if err != nil {
		rep.Failf("delivery/"+name, "serial live run failed: %v", err)
		return
	}
	batchRO := serialRO
	batchRO.batch = 64 // small batches force many publishes — worst case
	batchSum, batchDigest, err := run(batchRO, fsb.NewStreamDigest())
	if err != nil {
		rep.Failf("delivery/"+name, "batched live run failed: %v", err)
		return
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
}

// verifyConservation runs one live sweep with a private telemetry
// registry and checks that every derived total adds up: the manifest
// mirrors the RunSummary and per-LLC results bit-for-bit, and the
// bus/emulator counters equal the API-visible totals.
func verifyConservation(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, ro runOpts) error {
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	ro.tel = telemetry.NewSink(reg, telemetry.NewManifestWriter(&buf), nil)
	ro.store, ro.parent, ro.engine = nil, nil, EngineEmulate

	llcs := verifyConfigs(p.Scale)[:2]
	results, _, sum, err := sweep(name, p, pc, [][]cache.Config{llcs}, nil, nil, ro)
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
// instruction totals, MPKI, and the AF ignore count — to emulation of
// every config over the same stored capture, which one CombinedSweep
// under EngineEmulate answers. It runs two legs: the default planner
// (EngineAuto) over both grids, and the strict planner (EngineOracle)
// over the cache sweep alone, since strict mode refuses the line-size
// grid by design.
func verifyPlanner(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, ro runOpts) error {
	grids := [][]cache.Config{CacheSweepConfigs(p.Scale), LineSweepConfigs(p.Scale)}
	combined := func(grids [][]cache.Config, engine Engine) ([]LLCResult, RunSummary, error) {
		ro.engine = engine
		res, _, sum, err := sweep(name, p, pc, grids, nil, nil, ro)
		return res, sum, err
	}
	want, wantSum, err := combined(grids, EngineEmulate)
	if err != nil {
		return err
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
		got, sum, err := combined(grids[:leg.grids], leg.engine)
		if err != nil {
			return err
		}
		if sum == wantSum {
			rep.Passf(leg.prefix+"-summary/"+name, "run summary identical under %s", leg.engine)
		} else {
			rep.Failf(leg.prefix+"-summary/"+name, "planner summary %+v != emulation %+v", sum, wantSum)
		}
		for i, r := range got {
			checkPlanned(rep, fmt.Sprintf("%s/%s/%s", leg.prefix, name, r.LLC.Name), want[i], r)
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

// verifyFaults exercises the injected-failure paths end to end: a
// spill revived from disk must replay the identical stream, spill I/O
// corruption must force a recompute that yields it, and a lossy snooper
// must be detectable by digest and event count.
func verifyFaults(rep *verify.Report, name string, p workloads.Params, pc PlatformConfig, ro runOpts) error {
	ffs := verify.NewFaultFS()
	run := func() (RunSummary, *fsb.StreamDigest, tracestore.Stats, error) {
		d := fsb.NewStreamDigest()
		ro.store = tracestore.New(0, "spill")
		ro.store.SetFS(ffs)
		sum, err := runNamed(name, p, pc, ro, []fsb.Snooper{d})
		return sum, d, ro.store.Stats(), err
	}

	// Baseline: capture + spill through the fault filesystem (no faults
	// armed).
	cleanSum, cleanDigest, _, err := run()
	if err != nil {
		return err
	}
	files := ffs.Files()
	if len(files) != 1 {
		rep.Failf("fault/spill-written/"+name, "expected 1 spill file, have %d", len(files))
		return nil
	}
	rep.Passf("fault/spill-written/"+name, "captured and spilled %d bus events", cleanSum.BusEvents)

	// A fresh store on the spill: a clean file is a disk hit, a corrupt
	// one or a failed open degrades to re-execution, and every way the
	// stream must come out identical.
	revivals := []struct {
		check    string
		arm      func()
		diskHits uint64
		pass     string
	}{
		{"spill-replay", func() {}, 1, "disk-served stream bit-identical"},
		{"spill-corrupt", func() { ffs.CorruptRead, ffs.CorruptOff, ffs.CorruptMask = true, 200, 0x20 }, 0,
			"corrupt spill rejected; recompute bit-identical"},
		{"spill-open-fail", func() { ffs.CorruptRead, ffs.FailOpen = false, true }, 0,
			"open failure degraded to recompute"},
	}
	for _, rv := range revivals {
		rv.arm()
		sum, d, st, err := run()
		if err != nil {
			return err
		}
		id := "fault/" + rv.check + "/" + name
		switch {
		case st.DiskHits != rv.diskHits || sum != cleanSum || d.Sum() != cleanDigest.Sum():
			rep.Failf(id, "disk hits=%d (want %d), sum match=%v, digest match=%v",
				st.DiskHits, rv.diskHits, sum == cleanSum, d.Sum() == cleanDigest.Sum())
		case rv.diskHits == 1: // a disk hit names the stream it served
			rep.Passf(id, "%s (digest %#x)", rv.pass, d.Sum())
		default:
			rep.Passf(id, "%s", rv.pass)
		}
	}

	// Lossy delivery: a snooper that silently drops events must be
	// caught by the digest and by event-count conservation.
	lossTarget := fsb.NewStreamDigest()
	drop := &verify.DropSnooper{Inner: lossTarget, DropEvery: 101}
	witness := fsb.NewStreamDigest()
	ro.store = nil
	if _, err := runNamed(name, p, pc, ro, []fsb.Snooper{drop, witness}); err != nil {
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
