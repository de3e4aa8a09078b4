// Tests that pin the sweep executor from outside it: a differential
// against hand-built emulators on a plain Run, the progress-order
// contract the serving layer's job states are cut from, and span
// closure on every failure path.

package core

import (
	"fmt"
	"reflect"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/hier"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
)

// differentialGrids is a two-grid input that exercises every decision
// the executor makes: the same geometry under different names inside a
// grid and across grids, LRU/FIFO/Random, a sectored config, and two
// line sizes.
func differentialGrids() [][]cache.Config {
	return [][]cache.Config{
		{
			{Name: "a/16K", Size: 16 << 10, LineSize: 64, Assoc: 8},
			{Name: "a/64K", Size: 64 << 10, LineSize: 64, Assoc: 8},
			{Name: "a/64K-fifo", Size: 64 << 10, LineSize: 64, Assoc: 8, Repl: cache.FIFO},
			{Name: "a/64K-128B", Size: 64 << 10, LineSize: 128, Assoc: 8},
			{Name: "a/16K-twin", Size: 16 << 10, LineSize: 64, Assoc: 8},
		},
		{
			{Name: "b/64K", Size: 64 << 10, LineSize: 64, Assoc: 8},
			{Name: "b/64K-random", Size: 64 << 10, LineSize: 64, Assoc: 8, Repl: cache.Random},
			{Name: "b/64K-sectored", Size: 64 << 10, LineSize: 128, Assoc: 8, SectorSize: 32},
			{Name: "b/16K", Size: 16 << 10, LineSize: 64, Assoc: 8},
			{Name: "b/64K-128B", Size: 64 << 10, LineSize: 128, Assoc: 8},
		},
	}
}

// oracleAnswers reports whether a strict oracle plan at 64 B lines
// answers cfg: the tests' grids hold fewer 64 B LRU configs than
// EngineAuto's analytic leg takes, so they cover that leg with
// EngineOracle on these configs.
func oracleAnswers(cfg cache.Config) bool { return analyticEligible(cfg) && cfg.LineSize == 64 }

// oracleGrids keeps the configs of grids that oracleAnswers.
func oracleGrids(grids [][]cache.Config) [][]cache.Config {
	out := make([][]cache.Config, len(grids))
	for gi, g := range grids {
		for _, cfg := range g {
			if oracleAnswers(cfg) {
				out[gi] = append(out[gi], cfg)
			}
		}
	}
	return out
}

// TestSweepMatchesHandBuiltEmulators is the executor's differential:
// one Dragonhead per *input* config — no plan, no dedupe, no fan-out —
// snooping a plain Run, against LLCSweep and CombinedSweep under both
// engines, live and replayed. Everything an LLCResult carries must
// match, under the caller's names and in the caller's order.
func TestSweepMatchesHandBuiltEmulators(t *testing.T) {
	grids := differentialGrids()
	var flat []cache.Config
	for _, g := range grids {
		flat = append(flat, g...)
	}
	p, pc := tinyParams(), PlatformConfig{Threads: 2, Seed: 9}

	emus := make([]*dragonhead.Emulator, len(flat))
	snoopers := make([]fsb.Snooper, len(flat))
	for i, cfg := range flat {
		dcfg, err := bankedConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if emus[i], err = dragonhead.New(dcfg); err != nil {
			t.Fatal(err)
		}
		snoopers[i] = emus[i]
	}
	wantSum, err := Run("SNP", p, pc, snoopers...)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]LLCResult, len(flat))
	for i, e := range emus {
		want[i] = LLCResult{LLC: flat[i], Stats: e.Stats(), Instructions: e.Instructions(),
			MPKI: e.MPKI(), Samples: e.Samples(), Ignored: e.Ignored()}
		if len(want[i].Samples) == 0 {
			t.Fatalf("%s: no CB samples — the series comparison would be vacuous", flat[i].Name)
		}
	}

	check := func(tag string, got []LLCResult, sum RunSummary, err error, want []LLCResult) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if sum != wantSum {
			t.Errorf("%s: summary %+v, want %+v", tag, sum, wantSum)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results for %d configs", tag, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: result %d (%s) diverges from its hand-built emulator\n got %+v\nwant %+v",
					tag, i, want[i].LLC.Name, got[i], want[i])
			}
		}
	}
	// The oracle leg answers the grids' 64 B LRU configs only.
	var oracleWant []LLCResult
	for i, cfg := range flat {
		if oracleAnswers(cfg) {
			oracleWant = append(oracleWant, want[i])
		}
	}
	store := tracestore.New(0, "")
	for _, src := range []struct {
		tag  string
		opts []RunOption
	}{{"live", nil}, {"capture", []RunOption{WithTraceReuse(store)}}, {"replay", []RunOption{WithTraceReuse(store)}}} {
		for _, engine := range []Engine{EngineEmulate, EngineAuto, EngineOracle} {
			grids, want := grids, want
			if engine == EngineOracle {
				grids, want = oracleGrids(grids), oracleWant
			}
			opts := append([]RunOption{WithEngine(engine)}, src.opts...)
			tag := fmt.Sprintf("%s/%v", src.tag, engine)
			var flat []cache.Config
			for _, g := range grids {
				flat = append(flat, g...)
			}
			got, sum, err := LLCSweep("SNP", p, pc, flat, opts...)
			check("LLCSweep/"+tag, got, sum, err, want)
			nested, sum, err := CombinedSweep("SNP", p, pc, grids, opts...)
			var joined []LLCResult
			for gi, g := range nested {
				if len(g) != len(grids[gi]) {
					t.Fatalf("CombinedSweep/%s: grid %d has %d results for %d configs", tag, gi, len(g), len(grids[gi]))
				}
				joined = append(joined, g...)
			}
			check("CombinedSweep/"+tag, joined, sum, err, want)
		}
	}
	// CombinedSweep's default engine plans; same numbers.
	nested, sum, err := CombinedSweep("SNP", p, pc, grids)
	check("CombinedSweep/default", append(append([]LLCResult(nil), nested[0]...), nested[1]...), sum, err, want)
}

// TestSweepProgressOrder pins the phase sequences a sweep announces —
// cosimd's job states and SSE events are these, in this order — with
// one config event per input config, in input order.
func TestSweepProgressOrder(t *testing.T) {
	grids := differentialGrids()
	p, pc := tinyParams(), PlatformConfig{Threads: 2, Seed: 9}
	warm := tracestore.New(0, "")
	if _, _, err := CombinedSweep("SNP", p, pc, grids, WithTraceReuse(warm)); err != nil {
		t.Fatal(err)
	}
	sampled := WithSampling(SamplingFast)
	cold := func() RunOption { return WithTraceReuse(tracestore.New(0, "")) }
	cases := []struct {
		name string
		opts func() []RunOption // built per run: a cold store is cold once
		want []string
	}{
		{"live", func() []RunOption { return nil }, []string{PhaseExecute}},
		// A miss feeds the answerers from the capturing execution itself.
		{"store miss", func() []RunOption { return []RunOption{cold()} }, []string{PhaseCapture}},
		{"store hit", func() []RunOption { return []RunOption{WithTraceReuse(warm)} }, []string{PhaseReplay}},
		{"sampled, private store", func() []RunOption { return []RunOption{sampled} }, []string{PhaseCapture, PhaseSample, PhaseReplay}},
		{"sampled, store miss", func() []RunOption { return []RunOption{sampled, cold()} }, []string{PhaseCapture, PhaseSample, PhaseReplay}},
		{"sampled, store hit", func() []RunOption { return []RunOption{sampled, WithTraceReuse(warm)} }, []string{PhaseSample, PhaseReplay}},
	}
	for _, tc := range cases {
		for _, engine := range []Engine{EngineEmulate, EngineAuto, EngineOracle} {
			grids := grids
			if engine == EngineOracle {
				grids = oracleGrids(grids)
			}
			var names []string
			for _, g := range grids {
				for _, cfg := range g {
					names = append(names, cfg.Name)
				}
			}
			t.Run(fmt.Sprintf("%s/%v", tc.name, engine), func(t *testing.T) {
				var phases []string
				var configs []Progress
				hook := WithProgress(func(pr Progress) {
					if pr.Phase == PhaseConfig {
						configs = append(configs, pr)
						return
					}
					if len(configs) > 0 {
						t.Errorf("phase %q announced after the first config event", pr.Phase)
					}
					phases = append(phases, pr.Phase)
				})
				opts := append([]RunOption{WithEngine(engine), hook}, tc.opts()...)
				if _, _, err := CombinedSweep("SNP", p, pc, grids, opts...); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(phases, tc.want) {
					t.Errorf("announced %v, want %v", phases, tc.want)
				}
				if len(configs) != len(names) {
					t.Fatalf("%d config events for %d configs", len(configs), len(names))
				}
				for i, pr := range configs {
					if want := (Progress{Phase: PhaseConfig, Config: names[i], Done: i + 1, Total: len(names)}); pr != want {
						t.Errorf("config event %d = %+v, want %+v", i, pr, want)
					}
				}
			})
		}
	}
}

// firstOpenSpan returns the first span in the tree that was never
// ended (an ended span has a non-zero wall time).
func firstOpenSpan(s *telemetry.Span) *telemetry.Span {
	if s.WallNS == 0 {
		return s
	}
	for _, c := range s.Children {
		if open := firstOpenSpan(c); open != nil {
			return open
		}
	}
	return nil
}

// TestFailedSampledSweepEndsItsSpans (named for the leak it first
// caught, in the sampled tier) holds every runner to the same two
// rules on its error paths. A run that fails must end every span it
// opened, or the job's sealed trace keeps zero-length children forever:
// here each runner fails once inside its pass, on a capture whose
// stream is corrupt past the header, and once before it, on an invalid
// geometry. And the second kind of failure must cost nothing: every
// answerer is built before the source is touched, so the store sees no
// capture.
func TestFailedSampledSweepEndsItsSpans(t *testing.T) {
	p := samplingGradeParams()
	pc := PlatformConfig{Threads: 4, Seed: p.Seed}
	good := verifyConfigs(p.Scale)[:2]
	invalid := append(append([]cache.Config(nil), good...), cache.Config{Name: "x", Size: 100, LineSize: 64, Assoc: 1})
	goodHier := hier.Xeon16(pc.Threads, p.Scale, nil)
	badHier := goodHier
	badHier.Cores = 0

	tr, _, err := runOpts{store: tracestore.New(0, "")}.openTrace("MDS", p, pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 0xff sets a record header's reserved bits, so the decoder rejects
	// the stream at the first record that starts in the run.
	enc := tr.Encoded()
	for i := len(enc) / 2; i < len(enc); i++ {
		enc[i] = 0xff
	}
	corruptStore := func() *tracestore.Store {
		s := tracestore.New(0, "")
		if _, _, err := s.DoOutcome(TraceKey("MDS", p, pc), func() (*tracestore.Trace, error) {
			return tracestore.NewTrace(tr.Summary, enc), nil
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	runners := []struct {
		name string
		run  func(valid bool, opts ...RunOption) error
	}{
		{"emulate", func(valid bool, opts ...RunOption) error {
			_, _, err := LLCSweep("MDS", p, pc, pick(valid, good, invalid), append(opts, WithEngine(EngineEmulate))...)
			return err
		}},
		{"auto", func(valid bool, opts ...RunOption) error {
			_, _, err := CombinedSweep("MDS", p, pc, [][]cache.Config{pick(valid, good, invalid)}, opts...)
			return err
		}},
		{"sampled", func(valid bool, opts ...RunOption) error {
			_, _, err := LLCSweep("MDS", p, pc, pick(valid, good, invalid), append(opts, WithSampling(SamplingFast))...)
			return err
		}},
		{"hier", func(valid bool, opts ...RunOption) error {
			_, _, err := RunHier("MDS", p, pc, []hier.Config{goodHier, pick(valid, goodHier, badHier)}, opts...)
			return err
		}},
	}
	for _, r := range runners {
		t.Run(r.name+"/corrupt stream", func(t *testing.T) {
			root := telemetry.StartSpan("job")
			err := r.run(true, WithTraceReuse(corruptStore()), WithParentSpan(root))
			root.End()
			if err == nil {
				t.Fatal("a run over a corrupt stream succeeded")
			}
			if root.Find("store") == nil {
				t.Fatal("the run failed before touching the source; the test needs it to fail inside the pass")
			}
			if open := firstOpenSpan(root); open != nil {
				t.Errorf("span %q was left open by the failed run", open.Name)
			}
		})
		t.Run(r.name+"/invalid geometry", func(t *testing.T) {
			root := telemetry.StartSpan("job")
			store := tracestore.New(0, "")
			err := r.run(false, WithTraceReuse(store), WithParentSpan(root))
			root.End()
			if err == nil {
				t.Fatal("an invalid geometry was accepted")
			}
			if len(root.Children) != 1 {
				t.Fatalf("the run opened %d root spans, want 1", len(root.Children))
			}
			if open := firstOpenSpan(root); open != nil {
				t.Errorf("span %q was left open by the failed run", open.Name)
			}
			if st := store.Stats(); st.Misses != 0 {
				t.Errorf("the guest executed %d times for a sweep that could not be answered", st.Misses)
			}
		})
	}
}

// pick is the table's conditional: a when ok, else b.
func pick[T any](ok bool, a, b T) T {
	if ok {
		return a
	}
	return b
}

// TestSampledSweepRefusesWholeStreamAnswerers: a sampled pass measures
// windows of the stream, so a timing hierarchy or an observer on it
// would report on a fraction of the run as if it were all of it. The
// sweep refuses either one, before the source is touched.
func TestSampledSweepRefusesWholeStreamAnswerers(t *testing.T) {
	p := tinyParams()
	pc := PlatformConfig{Threads: 2, Seed: p.Seed}
	store := tracestore.New(0, "")
	ro := applyOpts([]RunOption{WithSampling(SamplingFast), WithTraceReuse(store)})
	grids := [][]cache.Config{tinyLLCs()}
	hcs := []hier.Config{hier.Xeon16(pc.Threads, p.Scale, nil)}
	observers := []fsb.Snooper{&captureSnooper{fn: func(trace.Ref) {}}}
	if _, _, _, err := sweep("SHOT", p, pc, grids, hcs, nil, ro); err == nil {
		t.Error("a sampled sweep accepted a timing hierarchy")
	}
	if _, _, _, err := sweep("SHOT", p, pc, grids, nil, observers, ro); err == nil {
		t.Error("a sampled sweep accepted a whole-stream observer")
	}
	if st := store.Stats(); st.Misses != 0 {
		t.Errorf("the refused sweeps executed the guest %d times", st.Misses)
	}
}
