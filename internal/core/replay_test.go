package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cmpmem/internal/cache"
	"cmpmem/internal/hier"
	"cmpmem/internal/prefetch"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads/registry"
)

// requireLLCResultsEqual asserts bit-identical results per config.
func requireLLCResultsEqual(t *testing.T, tag string, live, replay []LLCResult) {
	t.Helper()
	if len(live) != len(replay) {
		t.Fatalf("%s: result counts diverge: %d vs %d", tag, len(live), len(replay))
	}
	for i := range live {
		l, r := live[i], replay[i]
		if l.Stats != r.Stats {
			t.Errorf("%s/%s: Stats diverge:\nlive   %+v\nreplay %+v", tag, l.LLC.Name, l.Stats, r.Stats)
		}
		if l.MPKI != r.MPKI {
			t.Errorf("%s/%s: MPKI diverges: %v vs %v", tag, l.LLC.Name, l.MPKI, r.MPKI)
		}
		if l.Instructions != r.Instructions || l.Ignored != r.Ignored {
			t.Errorf("%s/%s: counters diverge: inst %d/%d ignored %d/%d",
				tag, l.LLC.Name, l.Instructions, r.Instructions, l.Ignored, r.Ignored)
		}
		if !reflect.DeepEqual(l.Samples, r.Samples) {
			t.Errorf("%s/%s: CB samples diverge (%d vs %d samples)",
				tag, l.LLC.Name, len(l.Samples), len(r.Samples))
		}
	}
}

// TestReplayEquivalenceAllWorkloads is the replay substrate's ground
// truth: for every registered workload on the SCMP platform, a sweep
// served from the memoized trace must be bit-identical — Stats, MPKI,
// CB Samples, instruction and ignored counters, and the RunSummary —
// to a live execution. The sweep runs twice against the store, and the
// second pass must be a pure store hit (zero further executions).
func TestReplayEquivalenceAllWorkloads(t *testing.T) {
	pc := SCMP()
	pc.Seed = 7
	pc.HostNoiseRefs = 16 // exercise out-of-window traffic through capture
	for _, wl := range registry.Names() {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			live, lsum, err := LLCSweep(wl, tinyParams(), pc, tinyLLCs())
			if err != nil {
				t.Fatal(err)
			}
			store := tracestore.New(0, "")
			for pass := 1; pass <= 2; pass++ {
				replay, rsum, err := LLCSweep(wl, tinyParams(), pc, tinyLLCs(), WithTraceReuse(store))
				if err != nil {
					t.Fatal(err)
				}
				if lsum != rsum {
					t.Errorf("pass %d: run summaries diverge:\nlive   %+v\nreplay %+v", pass, lsum, rsum)
				}
				requireLLCResultsEqual(t, wl, live, replay)
			}
			st := store.Stats()
			if st.Misses != 1 {
				t.Errorf("store executed %d times, want exactly 1", st.Misses)
			}
			if st.Hits != 1 {
				t.Errorf("store hits = %d, want 1 (second sweep must replay)", st.Hits)
			}
		})
	}
}

// TestEverySourceAnswersAlike: a store miss feeds the answerers from the
// capturing execution's own bus, beside the recorder; a hit and a disk
// revival replay; a single-flight waiter replays what another caller's
// answerers were fed live. Every one of them must return the whole
// LLCResult a store-less live run returns — under every engine, on a
// grid with a sectored config, FIFO/Random and two line sizes (the
// strict oracle on its 64 B LRU configs) — and the same for the timing
// hierarchy.
func TestEverySourceAnswersAlike(t *testing.T) {
	p, pc := tinyParams(), PlatformConfig{Threads: 2, Seed: 9}
	var grids [][]cache.Config
	sweep := func(opts ...RunOption) ([][]LLCResult, RunSummary) {
		t.Helper()
		res, sum, err := CombinedSweep("SNP", p, pc, grids, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, sum
	}
	same := func(tag string, want, got any) {
		t.Helper()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: differs from the live run", tag)
		}
	}
	for _, engine := range []Engine{EngineEmulate, EngineAuto, EngineOracle} {
		grids = differentialGrids()
		if engine == EngineOracle {
			grids = oracleGrids(grids)
		}
		live, lsum := sweep(WithEngine(engine))
		dir := t.TempDir()
		store := tracestore.New(0, dir)
		for _, leg := range []struct {
			tag   string
			store *tracestore.Store
			stat  func(tracestore.Stats) uint64
		}{
			{"miss", store, func(s tracestore.Stats) uint64 { return s.Misses }},
			{"hit", store, func(s tracestore.Stats) uint64 { return s.Hits }},
			{"disk", tracestore.New(0, dir), func(s tracestore.Stats) uint64 { return s.DiskHits }},
		} {
			tag := fmt.Sprintf("%v/%s", engine, leg.tag)
			got, sum := sweep(WithEngine(engine), WithTraceReuse(leg.store))
			if n := leg.stat(leg.store.Stats()); n != 1 {
				t.Fatalf("%s: the store counted %d of this outcome (%+v)", tag, n, leg.store.Stats())
			}
			same(tag, live, got)
			same(tag+" summary", lsum, sum)
		}

		// The waiter arrives while the leader's capture is in flight: the
		// leader's progress hook runs inside the capture and holds it until
		// the second sweep has collapsed onto it.
		store = tracestore.New(0, "")
		var waited [][]LLCResult
		var wsum RunSummary
		var werr error
		done := make(chan struct{})
		hook := WithProgress(func(pr Progress) {
			if pr.Phase != PhaseCapture {
				return
			}
			go func() {
				defer close(done)
				waited, wsum, werr = CombinedSweep("SNP", p, pc, grids, WithEngine(engine), WithTraceReuse(store))
			}()
			for store.Stats().Waits == 0 {
				time.Sleep(time.Millisecond)
			}
		})
		led, sum := sweep(WithEngine(engine), WithTraceReuse(store), hook)
		if <-done; werr != nil {
			t.Fatalf("%v/waiter: %v", engine, werr)
		}
		same(fmt.Sprintf("%v/leader", engine), live, led)
		same(fmt.Sprintf("%v/waiter", engine), live, waited)
		same(fmt.Sprintf("%v/waiter summary", engine), lsum, wsum)
		same(fmt.Sprintf("%v/leader summary", engine), lsum, sum)
	}

	// Two hierarchies co-snooping one pass answer what each answers
	// alone, from every source.
	pf := prefetch.DefaultConfig(64)
	hcs := []hier.Config{hier.Xeon16(pc.Threads, p.Scale, nil), hier.Xeon16(pc.Threads, p.Scale, &pf)}
	hierRun := func(hcs []hier.Config, opts ...RunOption) ([]HierResult, RunSummary) {
		t.Helper()
		res, sum, err := RunHier("SNP", p, pc, hcs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res, sum
	}
	off, osum := hierRun(hcs[:1])
	on, _ := hierRun(hcs[1:])
	alone := append(off, on...)
	live, lsum := hierRun(hcs)
	same("hier/live", alone, live)
	same("hier/live summary", osum, lsum)
	dir := t.TempDir()
	store := tracestore.New(0, dir)
	for _, leg := range []struct {
		tag   string
		store *tracestore.Store
	}{{"miss", store}, {"hit", store}, {"disk", tracestore.New(0, dir)}} {
		got, sum := hierRun(hcs, WithTraceReuse(leg.store))
		same("hier/"+leg.tag, alone, got)
		same("hier/"+leg.tag+" summary", osum, sum)
	}
}

// TestReplayBatchedBusEquivalence: replay composes with the bus's
// fan-out — the memoized stream delivered in small batches over four
// workers must match synchronous live delivery bit-for-bit.
func TestReplayBatchedBusEquivalence(t *testing.T) {
	pc := MCMP()
	pc.Seed = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	live, lsum, err := LLCSweep("FIMI", tinyParams(), pc, tinyLLCs())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	store := tracestore.New(0, "")
	replay, rsum, err := LLCSweep("FIMI", tinyParams(), pc, tinyLLCs(),
		WithTraceReuse(store), WithBusBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	if lsum != rsum {
		t.Errorf("run summaries diverge:\nlive   %+v\nreplay %+v", lsum, rsum)
	}
	requireLLCResultsEqual(t, "FIMI-batched", live, replay)
}

// TestReplayHierEquivalence: the timing hierarchy (Table 2 / Figure 8
// substrate) must be insensitive to replay as well.
func TestReplayHierEquivalence(t *testing.T) {
	p := tinyParams()
	pc := SCMP()
	pc.Seed = 11
	hc := hier.Xeon16(pc.Threads, p.Scale, nil)
	live, _, err := RunHier("SNP", p, pc, []hier.Config{hc})
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(0, "")
	for pass := 1; pass <= 2; pass++ {
		replay, _, err := RunHier("SNP", p, pc, []hier.Config{hc}, WithTraceReuse(store))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replay) {
			t.Errorf("pass %d: hierarchy results diverge:\nlive   %+v\nreplay %+v", pass, live, replay)
		}
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("store stats = %+v, want 1 miss + 1 hit", st)
	}
}

// TestReplayTraceCaptureEquivalence: TraceCapture through the store
// must forward exactly the live in-window stream.
func TestReplayTraceCaptureEquivalence(t *testing.T) {
	p := tinyParams()
	pc := SCMP()
	pc.Seed = 5
	var live []trace.Ref
	lsum, err := TraceCapture("SVM-RFE", p, pc, func(r trace.Ref) { live = append(live, r) })
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(0, "")
	var replay []trace.Ref
	rsum, err := TraceCapture("SVM-RFE", p, pc, func(r trace.Ref) { replay = append(replay, r) },
		WithTraceReuse(store))
	if err != nil {
		t.Fatal(err)
	}
	if lsum != rsum {
		t.Errorf("run summaries diverge:\nlive   %+v\nreplay %+v", lsum, rsum)
	}
	if len(live) != len(replay) {
		t.Fatalf("captured stream lengths diverge: %d vs %d", len(live), len(replay))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("ref %d diverges: %+v vs %+v", i, live[i], replay[i])
		}
	}
	if len(live) == 0 {
		t.Fatal("capture forwarded no refs")
	}
}

// TestReplaySharedAcrossExperiments: one store shared by different
// experiment shapes (sweep, hierarchy, capture) on the same key still
// executes exactly once.
func TestReplaySharedAcrossExperiments(t *testing.T) {
	p := tinyParams()
	pc := SCMP()
	pc.Seed = 9
	store := tracestore.New(0, "")
	if _, _, err := LLCSweep("MDS", p, pc, tinyLLCs(), WithTraceReuse(store)); err != nil {
		t.Fatal(err)
	}
	hc := hier.Xeon16(pc.Threads, p.Scale, nil)
	if _, _, err := RunHier("MDS", p, pc, []hier.Config{hc}, WithTraceReuse(store)); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := TraceCapture("MDS", p, pc, func(trace.Ref) { n++ }, WithTraceReuse(store)); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("capture through shared store forwarded no refs")
	}
	st := store.Stats()
	if st.Misses != 1 {
		t.Errorf("workload executed %d times across 3 experiment shapes, want 1", st.Misses)
	}
	if st.Hits != 2 {
		t.Errorf("store hits = %d, want 2", st.Hits)
	}
}

// TestReplayChecksEventCount: a stored stream that decodes cleanly but
// holds fewer events than its summary records fails the sweep with an
// error naming both counts, never answers with results that disagree
// with the summary it returns.
func TestReplayChecksEventCount(t *testing.T) {
	p := tinyParams()
	pc := SCMP()
	tr, _, err := runOpts{store: tracestore.New(0, "")}.openTrace("FIMI", p, pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first half of the captured records, encoded as a whole stream.
	pl, err := tr.Player()
	if err != nil {
		t.Fatal(err)
	}
	half := tr.Summary.BusEvents / 2
	refs := make([]trace.Ref, half)
	if n := pl.NextBatch(refs); n != len(refs) {
		t.Fatalf("decoded %d records, want %d: %v", n, len(refs), pl.Err())
	}
	var enc trace.Encoder
	short, err := enc.AppendBlocks(trace.AppendHeader(nil), refs)
	if err != nil {
		t.Fatal(err)
	}
	short = enc.Flush(short)
	store := tracestore.New(0, "")
	if _, _, err := store.DoOutcome(TraceKey("FIMI", p, pc), func() (*tracestore.Trace, error) {
		return tracestore.NewTrace(tr.Summary, short), nil
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err = CombinedSweep("FIMI", p, pc, [][]cache.Config{tinyLLCs()}, WithTraceReuse(store))
	want := fmt.Sprintf("replay decoded %d bus events, the trace's summary records %d", half, tr.Summary.BusEvents)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("sweep over a short stream: err %v, want one containing %q", err, want)
	}
}

// TestSpillRevivalDecodesNothing: a revival checks a spill's checksum,
// key echo and stream header and decodes no record, so a correctly
// checksummed spill of a stream the encoder got wrong is a disk hit. The
// sweep over it fails at replay, with the replay's or the codec's error
// and no results.
func TestSpillRevivalDecodesNothing(t *testing.T) {
	p := tinyParams()
	pc := SCMP()
	tr, _, err := runOpts{store: tracestore.New(0, "")}.openTrace("FIMI", p, pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tr.Player()
	if err != nil {
		t.Fatal(err)
	}
	// The first half of the captured records, and a copy whose middle
	// record sets the reserved header bits: the first record of the
	// block that starts at the half of the half.
	half := tr.Summary.BusEvents / 2
	refs := make([]trace.Ref, half)
	if n := pl.NextBatch(refs); n != len(refs) {
		t.Fatalf("decoded %d records, want %d: %v", n, len(refs), pl.Err())
	}
	var enc trace.Encoder
	short, err := enc.AppendBlocks(trace.AppendHeader(nil), refs[:half/2])
	if err != nil {
		t.Fatal(err)
	}
	short = enc.Flush(short)
	mid := len(short) + 1
	if short, err = enc.AppendBlocks(short, refs[half/2:]); err != nil {
		t.Fatal(err)
	}
	short = enc.Flush(short)
	reserved := slices.Clone(short)
	reserved[mid] |= 0xc0
	for _, c := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"short stream", short, fmt.Sprintf("replay decoded %d bus events, the trace's summary records %d", half, tr.Summary.BusEvents)},
		{"reserved header bits", reserved, "trace: corrupt record (reserved header bits 0xc0 set)"},
	} {
		dir := t.TempDir()
		if _, _, err := tracestore.New(0, dir).DoOutcome(TraceKey("FIMI", p, pc), func() (*tracestore.Trace, error) {
			return tracestore.NewTrace(tr.Summary, c.stream), nil
		}); err != nil {
			t.Fatal(err)
		}
		store := tracestore.New(0, dir)
		res, _, err := CombinedSweep("FIMI", p, pc, [][]cache.Config{tinyLLCs()}, WithTraceReuse(store))
		if st := store.Stats(); st.DiskHits != 1 || st.Misses != 0 {
			t.Errorf("%s: store stats %+v, want one disk hit and no miss", c.name, st)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
		if res != nil {
			t.Errorf("%s: sweep returned %d result grids beside its error", c.name, len(res))
		}
	}
}
