package main

import (
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/oracle"
	"cmpmem/internal/par"
	"cmpmem/internal/sampling"
	"cmpmem/internal/softsdv"
	"cmpmem/internal/stackdist"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
	"cmpmem/internal/workloads"
	"cmpmem/internal/workloads/registry"
)

// costs are the layer costs the workloads' predict functions combine
// into a blocking path: seconds for whole steps, nanoseconds per bus
// event for per-event work.
type costs struct {
	events        float64 // bus events in the capture, control messages included
	runS          float64 // guest build + execution with nothing on the bus
	recordNS      float64 // tracestore.Recorder per event
	spillWriteS   float64 // store miss that spills the capture
	spillLoadS    float64 // store hit that revives the spill
	decodeNS      float64 // StreamPlayer.NextBatch per event
	dispatchNS    float64 // the synchronous bus itself per event, consumers' own calls excluded
	emulateNS     float64 // the emulated leg's Dragonheads per event
	oracleNS      float64 // the analytic engine's pass per event
	trackS        float64 // registering and reading the tracked geometries
	fingerprintNS float64 // sampling fingerprint pass per event
	planBuildS    float64 // clustering the fingerprints into a plan
	windowsS      float64 // replaying the plan's windows
}

// prober times each layer through its public API over one capture: the
// owning workload's dataset, platform and grid, captured here once.
// Per-event costs divide by the capture's bus events, control messages
// included, so that cost x events is a share of a sweep's wall time.
type prober struct {
	rc       *runCtx
	bench    string
	p        workloads.Params
	pc       core.PlatformConfig
	grid     []cache.Config // the workload's whole grid
	engine   core.Engine
	snoopers int // consumers on the bus during the plan's one pass
	// emulated and analytic are the legs of the workload's own plan. A
	// leg the plan lacks is probed on a stand-in grid (the live-sweep
	// ladder, Figure 4's sizes) so that every workload reports every
	// layer; README.md marks which numbers are stand-ins.
	emulated, analytic []cache.Config

	tr      *tracestore.Trace
	refs    []trace.Ref // every bus event, control messages encoded in place
	memRefs []trace.Ref // the in-window memory transactions only
	store   *tracestore.Store
	c       costs
}

// busRecorder captures the bus into a tracestore.Recorder, control
// messages as their reserved-window encoding.
type busRecorder struct{ rec *tracestore.Recorder }

func (b busRecorder) OnRef(r trace.Ref)   { b.rec.Add(r) }
func (b busRecorder) OnMsg(m fsb.Message) { b.rec.Add(fsb.EncodeMessage(m)) }

func newProber(rc *runCtx, bench string, p workloads.Params, pc core.PlatformConfig, grid []cache.Config, engine core.Engine) *prober {
	pb := &prober{rc: rc, bench: bench, p: p, pc: pc, grid: grid, engine: engine, store: tracestore.New(0, "")}
	rec := rc.rec
	plan, err := core.PlanSweep(grid, engine)
	if !rec.check(err == nil, "planning the probe grid: %v", err) {
		return nil
	}
	for _, i := range plan.Emulated {
		pb.emulated = append(pb.emulated, grid[i])
	}
	for _, i := range plan.Analytic {
		pb.analytic = append(pb.analytic, grid[i])
	}
	// One emulator per emulated configuration, one engine for all the
	// analytic ones.
	pb.snoopers = len(pb.emulated) + min(1, len(pb.analytic))
	if len(pb.emulated) == 0 {
		pb.emulated = liveLadder(p.Scale)
	}
	if len(pb.analytic) == 0 {
		pb.analytic = core.CacheSweepConfigs(p.Scale)
	}

	sp := rc.root.StartChild("probe/capture")
	defer sp.End()
	r := tracestore.NewRecorder()
	sum, err := core.Run(bench, p, pc, busRecorder{r})
	if !rec.check(err == nil, "probe capture: %v", err) {
		return nil
	}
	pb.tr, err = r.Finish(tracestore.Summary{Workload: sum.Workload, Threads: sum.Threads,
		Instructions: sum.Instructions, Loads: sum.Loads, Stores: sum.Stores})
	if !rec.check(err == nil, "probe capture: %v", err) {
		return nil
	}
	pl, err := pb.tr.Player()
	if !rec.check(err == nil, "probe capture: %v", err) {
		return nil
	}
	pb.refs = make([]trace.Ref, 0, pb.tr.Summary.BusEvents)
	var buf [decodeBatch]trace.Ref
	window := false
	for n := pl.NextBatch(buf[:]); n > 0; n = pl.NextBatch(buf[:]) {
		for _, ref := range buf[:n] {
			pb.refs = append(pb.refs, ref)
			if m, ok := fsb.DecodeMessage(ref); ok {
				switch m.Kind {
				case fsb.MsgStart:
					window = true
				case fsb.MsgStop:
					window = false
				}
			} else if window {
				pb.memRefs = append(pb.memRefs, ref)
			}
		}
	}
	if !rec.check(pl.Err() == nil && uint64(len(pb.refs)) == sum.BusEvents, "probe capture decoded %d of %d events: %v", len(pb.refs), sum.BusEvents, pl.Err()) {
		return nil
	}
	pb.c.events = float64(len(pb.refs))
	return pb
}

// decodeBatch is the replay engine's decode granularity.
const decodeBatch = 64

// reps runs fn the configured number of times under a probe span and
// returns the median seconds. fn times its own measured region, so its
// set-up stays out, and returns a count that must repeat exactly.
func (pb *prober) reps(name string, fn func() (time.Duration, uint64)) (sec float64, count uint64) {
	sp := pb.rc.root.StartChild("probe/" + name)
	defer sp.End()
	var secs []float64
	for i := range pb.rc.size.probeReps {
		rsp := sp.StartChild("rep")
		d, n := fn()
		rsp.End()
		secs = append(secs, d.Seconds())
		if i == 0 {
			count = n
		} else {
			pb.rc.rec.check(n == count, "probe %s: count %d on repetition %d, %d on the first", name, n, i, count)
		}
	}
	return median(secs), count
}

// perEvent converts seconds for a pass over the capture to ns per event.
func (pb *prober) perEvent(sec float64) float64 { return sec * 1e9 / pb.c.events }

func (pb *prober) all() {
	pb.execution()
	pb.codec()
	pb.traceStore()
	pb.bus()
	pb.setPath()
	pb.analyticPass()
	pb.sampledTier()
	pb.planner()
	pb.concurrency()
	pb.telemetryCost()
}

// execution times the guest alone: the dataset build, then the DEX
// scheduler running the program onto a bus nobody listens to.
func (pb *prober) execution() {
	rec, threads := pb.rc.rec, pb.pc.Threads
	var buildS []float64
	var events uint64
	execS, inst := pb.reps("softsdv.run", func() (time.Duration, uint64) {
		t0 := time.Now()
		w, err := registry.New(pb.bench, pb.p)
		if !rec.check(err == nil, "workload: %v", err) {
			return 0, 0
		}
		bus := fsb.NewBus()
		sched, err := softsdv.NewScheduler(softsdv.Config{Cores: threads, Quantum: pb.pc.Quantum,
			HostNoiseRefs: pb.pc.HostNoiseRefs, Seed: pb.pc.Seed}, bus)
		if !rec.check(err == nil, "scheduler: %v", err) {
			return 0, 0
		}
		prog, err := w.Build(mem.NewSpace(), sched, threads)
		if !rec.check(err == nil, "build: %v", err) {
			return 0, 0
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		t0 = time.Now()
		err = sched.Run(prog)
		d := time.Since(t0)
		rec.check(err == nil && bus.Close() == nil, "guest run: %v", err)
		events = bus.Events()
		return d, sched.Instructions()
	})
	rec.check(events == uint64(len(pb.refs)), "guest run put %d events on the bus, the capture holds %d", events, len(pb.refs))
	pb.c.runS = median(buildS) + execS
	rec.set("workloads.build_s", buildS...)
	rec.set("softsdv.exec_ns_per_inst", execS*1e9/float64(inst))
	rec.set("softsdv.sim_mips", float64(inst)/execS/1e6)
	rec.set("softsdv.instructions", float64(inst))
	rec.set("softsdv.bus_events", float64(events))
}

// codec times the v2 writer and the batch decoder over the capture.
func (pb *prober) codec() {
	rec := pb.rc.rec
	encS, _ := pb.reps("trace.encode", func() (time.Duration, uint64) {
		w, err := trace.NewWriterV2(io.Discard)
		if !rec.check(err == nil, "trace writer: %v", err) {
			return 0, 0
		}
		t0 := time.Now()
		for _, r := range pb.refs {
			if err == nil {
				err = w.Write(r)
			}
		}
		if err == nil {
			err = w.Flush()
		}
		rec.check(err == nil, "trace encode: %v", err)
		return time.Since(t0), w.Count()
	})
	rec.set("trace.encode_ns_per_ref", pb.perEvent(encS))
	rec.set("trace.bytes_per_ref", float64(pb.tr.EncodedLen())/pb.c.events)

	var mallocs uint64
	decS, _ := pb.reps("trace.decode", func() (time.Duration, uint64) {
		pl, err := pb.tr.Player()
		if !rec.check(err == nil, "trace player: %v", err) {
			return 0, 0
		}
		var m0, m1 runtime.MemStats
		var buf [decodeBatch]trace.Ref
		var n uint64
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for k := pl.NextBatch(buf[:]); k > 0; k = pl.NextBatch(buf[:]) {
			n += uint64(k)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		rec.check(pl.Err() == nil, "trace decode: %v", pl.Err())
		return d, n
	})
	pb.c.decodeNS = pb.perEvent(decS)
	rec.set("trace.decode_ns_per_ref", pb.c.decodeNS)
	rec.set("trace.decode_allocs_per_mref", float64(mallocs)/(pb.c.events/1e6))
}

// traceStore times the recorder and the store's three outcomes: a miss
// that spills, a hit that revives the spill, and a memory hit.
func (pb *prober) traceStore() {
	rec := pb.rc.rec
	recS, _ := pb.reps("tracestore.record", func() (time.Duration, uint64) {
		t0 := time.Now()
		r := tracestore.NewRecorder()
		for _, ref := range pb.refs {
			r.Add(ref)
		}
		tr, err := r.Finish(pb.tr.Summary)
		d := time.Since(t0)
		if !rec.check(err == nil, "recorder: %v", err) {
			return d, 0
		}
		return d, uint64(tr.EncodedLen())
	})
	pb.c.recordNS = pb.perEvent(recS)
	rec.set("tracestore.record_ns_per_ref", pb.c.recordNS)

	dir, err := os.MkdirTemp(pb.rc.outDir, "probe-spill-")
	if !rec.check(err == nil, "spill directory: %v", err) {
		return
	}
	defer os.RemoveAll(dir)
	const hits = 1000
	var writeS, loadS, hitS []float64
	sp := pb.rc.root.StartChild("probe/tracestore.outcomes")
	for i := range pb.rc.size.probeReps {
		key := tracestore.Key{Workload: pb.bench, Seed: int64(i)}
		missing := func() (*tracestore.Trace, error) { return nil, errors.New("no spill file to revive") }
		t0 := time.Now()
		_, out, err := tracestore.New(0, dir).DoOutcome(key, func() (*tracestore.Trace, error) { return pb.tr, nil })
		writeS = append(writeS, time.Since(t0).Seconds())
		rec.check(err == nil && out == tracestore.OutcomeMiss, "spilling store: outcome %v: %v", out, err)
		revived := tracestore.New(0, dir)
		t0 = time.Now()
		got, out, err := revived.DoOutcome(key, missing)
		loadS = append(loadS, time.Since(t0).Seconds())
		rec.check(err == nil && out == tracestore.OutcomeDisk && got.EncodedLen() == pb.tr.EncodedLen(), "reviving store: outcome %v: %v", out, err)
		t0 = time.Now()
		for range hits {
			_, out, _ = revived.DoOutcome(key, missing)
		}
		hitS = append(hitS, time.Since(t0).Seconds()/hits)
		rec.check(out == tracestore.OutcomeHit, "warm store: outcome %v", out)
	}
	sp.End()
	pb.c.spillWriteS, pb.c.spillLoadS = median(writeS), median(loadS)
	mb := float64(pb.tr.EncodedLen()) / 1e6
	rec.set("tracestore.spill_write_mb_per_s", mb/pb.c.spillWriteS)
	rec.set("tracestore.spill_load_mb_per_s", mb/pb.c.spillLoadS)
	rec.set("tracestore.hit_us", median(hitS)*1e6)
	rec.set("tracestore.resident_mb", float64(pb.tr.SizeBytes())/1e6)
}

// countSnooper is a consumer that does no work, so what the bus probes
// time is delivery.
type countSnooper struct{ n uint64 }

func (c *countSnooper) OnRef(trace.Ref)   { c.n++ }
func (c *countSnooper) OnMsg(fsb.Message) { c.n++ }

// deliver feeds the capture to a bus the way core's replay does.
func (pb *prober) deliver(ref func(trace.Ref), msg func(fsb.Message)) {
	for _, r := range pb.refs {
		if m, ok := fsb.DecodeMessage(r); ok {
			msg(m)
		} else {
			ref(r)
		}
	}
}

// bus times the three delivery mechanisms with count-only consumers: as
// many as the workload's own pass attaches on the two broadcast buses,
// min(4, hardware threads) shards on the address-partitioned one.
func (pb *prober) bus() {
	rec := pb.rc.rec
	total := func(cs []countSnooper) (n uint64) {
		for i := range cs {
			n += cs[i].n
		}
		return n
	}
	broadcast := func(name string, newBus func() *fsb.Bus) float64 {
		sec, _ := pb.reps(name, func() (time.Duration, uint64) {
			bus := newBus()
			cs := make([]countSnooper, pb.snoopers)
			for i := range cs {
				bus.Attach(&cs[i])
			}
			t0 := time.Now()
			pb.deliver(bus.Ref, bus.Msg)
			err := bus.Close()
			d := time.Since(t0)
			rec.check(err == nil, "%s: %v", name, err)
			return d, total(cs)
		})
		return pb.perEvent(sec)
	}
	serialNS := broadcast("fsb.serial", fsb.NewBus)
	rec.set("fsb.serial_ns_per_event", serialNS)
	rec.set("fsb.batched_ns_per_event", broadcast("fsb.batched", func() *fsb.Bus { return fsb.NewBatchedBus(0) }))

	// The same calls into the same consumers with no bus between: the
	// consumer probes (emulators, oracle, fingerprinter) each include
	// being called per event, so only what the bus adds to that is the
	// bus's share of a blocking path.
	directS, _ := pb.reps("fsb.direct", func() (time.Duration, uint64) {
		cs := make([]countSnooper, pb.snoopers)
		snoopers := make([]fsb.Snooper, len(cs))
		for i := range cs {
			snoopers[i] = &cs[i]
		}
		t0 := time.Now()
		pb.deliver(func(r trace.Ref) {
			for _, s := range snoopers {
				s.OnRef(r)
			}
		}, func(m fsb.Message) {
			for _, s := range snoopers {
				s.OnMsg(m)
			}
		})
		return time.Since(t0), total(cs)
	})
	pb.c.dispatchNS = max(0, serialNS-pb.perEvent(directS))

	shards := 1
	for shards*2 <= min(4, runtime.NumCPU()) {
		shards *= 2
	}
	sec, _ := pb.reps("fsb.sharded", func() (time.Duration, uint64) {
		cs := make([]countSnooper, shards)
		cons := make([]fsb.Snooper, shards)
		for i := range cs {
			cons[i] = &cs[i]
		}
		sh := fsb.NewSharder(cons, 0)
		t0 := time.Now()
		pb.deliver(func(r trace.Ref) { sh.Ref(int(uint64(r.Addr)>>6)&(shards-1), r) }, sh.Broadcast)
		err := sh.Close()
		d := time.Since(t0)
		rec.check(err == nil, "fsb.sharded: %v", err)
		return d, total(cs)
	})
	rec.set("fsb.sharded_ns_per_event", pb.perEvent(sec))
}

// bankFit is core's rule for fitting the board's four CC banks to a
// small cache: halve the banks until each holds at least one set.
func bankFit(llc cache.Config) dragonhead.Config {
	cfg := dragonhead.DefaultConfig(llc)
	sets := llc.Size / llc.LineSize
	if llc.Assoc > 0 {
		sets /= uint64(llc.Assoc)
	}
	for cfg.Banks > 1 && uint64(cfg.Banks) > sets {
		cfg.Banks /= 2
	}
	return cfg
}

// setPath times the emulated leg twice over the same configurations:
// whole Dragonhead emulators driven per event, as the serial bus drives
// them, and bare caches given only the in-window transactions. The
// difference is the emulator's own address filter, banking and counter
// board. Then cache.AccessBatch alone on three set-path shapes.
func (pb *prober) setPath() {
	rec := pb.rc.rec
	var samples int
	emuS, emuAccesses := pb.reps("dragonhead.onref", func() (time.Duration, uint64) {
		emus := make([]*dragonhead.Emulator, len(pb.emulated))
		for i, llc := range pb.emulated {
			var err error
			if emus[i], err = dragonhead.New(bankFit(llc)); !rec.check(err == nil, "emulator %s: %v", llc.Name, err) {
				return 0, 0
			}
		}
		t0 := time.Now()
		for _, r := range pb.refs {
			for _, e := range emus {
				e.OnRef(r)
			}
		}
		for _, e := range emus {
			e.Finalize()
		}
		d := time.Since(t0)
		var accesses uint64
		samples = 0
		for _, e := range emus {
			accesses += e.Stats().Accesses
			samples += len(e.Samples())
		}
		return d, accesses
	})
	accS, accesses := pb.reps("cache.access", func() (time.Duration, uint64) {
		caches := make([]*cache.Cache, len(pb.emulated))
		for i, llc := range pb.emulated {
			var err error
			if caches[i], err = cache.New(llc); !rec.check(err == nil, "cache %s: %v", llc.Name, err) {
				return 0, 0
			}
		}
		t0 := time.Now()
		for _, r := range pb.memRefs {
			for _, c := range caches {
				c.AccessRef(r)
			}
		}
		d := time.Since(t0)
		var accesses uint64
		for _, c := range caches {
			accesses += c.Stats().Accesses
		}
		return d, accesses
	})
	rec.check(emuAccesses == accesses, "banked emulators counted %d line accesses, monolithic caches %d", emuAccesses, accesses)
	pb.c.emulateNS = pb.perEvent(emuS)
	rec.set("dragonhead.onref_ns_per_ref", pb.c.emulateNS)
	rec.set("dragonhead.self_ns_per_ref", pb.perEvent(emuS-accS))
	rec.set("dragonhead.samples", float64(samples))
	rec.set("cache.access_ns_per_ref", pb.perEvent(accS))

	lines := core.LineSweepConfigs(pb.p.Scale)
	random := lines[0]
	random.Repl = cache.Random
	batch := func(name string, cfg cache.Config) (float64, uint64) {
		sec, misses := pb.reps(name, func() (time.Duration, uint64) {
			c, err := cache.New(cfg)
			if !rec.check(err == nil, "cache %s: %v", cfg.Name, err) {
				return 0, 0
			}
			t0 := time.Now()
			for i := 0; i < len(pb.memRefs); i += decodeBatch {
				c.AccessBatch(pb.memRefs[i:min(i+decodeBatch, len(pb.memRefs))])
			}
			return time.Since(t0), c.Stats().Misses
		})
		return pb.perEvent(sec), misses
	}
	ns, misses := batch("cache.access_batch", lines[0])
	rec.set("cache.access_batch_ns_per_ref", ns)
	rec.set("cache.misses", float64(misses))
	ns, _ = batch("cache.access_batch_line4k", lines[len(lines)-1])
	rec.set("cache.access_batch_line4k_ns_per_ref", ns)
	ns, _ = batch("cache.access_batch_random", random)
	rec.set("cache.access_batch_random_ns_per_ref", ns)
}

// analyticPass times the Mattson engine over the analytic leg, and the
// stack-distance analyzer it and the fingerprinter are built on.
func (pb *prober) analyticPass() {
	rec := pb.rc.rec
	var trackS []float64
	passS, _ := pb.reps("oracle.pass", func() (time.Duration, uint64) {
		t0 := time.Now()
		eng, err := oracle.New(pb.analytic[0].LineSize)
		if !rec.check(err == nil, "oracle: %v", err) {
			return 0, 0
		}
		// The clock and period core's planner gives the engine.
		err = eng.EnableSampling(3e9, dragonhead.DefaultSamplePeriod)
		rec.check(err == nil, "oracle sampling: %v", err)
		tracked := make([]*oracle.Tracked, len(pb.analytic))
		for i, cfg := range pb.analytic {
			if tracked[i], err = eng.Track(cfg); !rec.check(err == nil, "oracle track %s: %v", cfg.Name, err) {
				return 0, 0
			}
		}
		track := time.Since(t0)
		t0 = time.Now()
		for _, r := range pb.refs {
			eng.OnRef(r)
		}
		pass := time.Since(t0)
		t0 = time.Now()
		var misses uint64
		for _, t := range tracked {
			misses += t.Stats().Misses
			_, _ = t.MPKI(), t.Samples()
		}
		trackS = append(trackS, (track + time.Since(t0)).Seconds())
		return pass, misses
	})
	pb.c.oracleNS, pb.c.trackS = pb.perEvent(passS), median(trackS)
	rec.set("oracle.pass_ns_per_ref", pb.c.oracleNS)
	rec.set("oracle.track_ms", pb.c.trackS*1e3)

	sdS, _ := pb.reps("stackdist.record", func() (time.Duration, uint64) {
		a := stackdist.New(sampling.LineSize, 1)
		t0 := time.Now()
		for _, r := range pb.memRefs {
			a.Record(r.Addr)
		}
		return time.Since(t0), a.Cold()
	})
	rec.set("stackdist.record_ns_per_ref", pb.perEvent(sdS))
}

// sweep answers the workload's grid over the prober's warm store.
func (pb *prober) sweep(grid []cache.Config, opts ...core.RunOption) ([]core.LLCResult, time.Duration, bool) {
	t0 := time.Now()
	res, _, err := core.CombinedSweep(pb.bench, pb.p, pb.pc, [][]cache.Config{grid}, with(opts, core.WithTraceReuse(pb.store))...)
	d := time.Since(t0)
	if !pb.rc.rec.check(err == nil, "probe sweep: %v", err) {
		return nil, d, false
	}
	return res[0], d, true
}

// sampledTier times the fast tier's three steps — fingerprint pass,
// clustering, window replay — and grades its estimates against the
// exact sweep of the same grid.
func (pb *prober) sampledTier() {
	rec := pb.rc.rec
	var buildS []float64
	var plan *sampling.Plan
	fpS, _ := pb.reps("sampling.fingerprint", func() (time.Duration, uint64) {
		fp := sampling.NewFingerprinter(sampling.Fast(), uint64(len(pb.refs)))
		t0 := time.Now()
		for _, r := range pb.refs {
			fp.OnRef(r)
		}
		d := time.Since(t0)
		t0 = time.Now()
		var err error
		plan, err = fp.Build()
		buildS = append(buildS, time.Since(t0).Seconds())
		if !rec.check(err == nil, "sampling plan: %v", err) {
			return d, 0
		}
		return d, plan.ReplayedRefs()
	})
	pb.c.fingerprintNS, pb.c.planBuildS = pb.perEvent(fpS), median(buildS)
	rec.set("sampling.fingerprint_ns_per_ref", pb.c.fingerprintNS)
	rec.set("sampling.build_ms", pb.c.planBuildS*1e3)
	if plan != nil {
		rec.set("sampling.replayed_frac", float64(plan.ReplayedRefs())/float64(max(plan.TotalRefs, 1)))
		rec.set("sampling.clusters", float64(len(plan.Clusters)))
	}

	sp := pb.rc.root.StartChild("probe/sampling.sweep")
	defer sp.End()
	exact, _, ok := pb.sweep(pb.grid)
	if !ok {
		return
	}
	// The window replay runs between the sweep's replay event and its
	// first per-configuration event.
	var replayAt, configAt time.Time
	hook := core.WithProgress(func(pr core.Progress) {
		switch {
		case pr.Phase == core.PhaseReplay:
			replayAt = time.Now()
		case pr.Phase == core.PhaseConfig && configAt.IsZero():
			configAt = time.Now()
		}
	})
	var windowS []float64
	var est []core.LLCResult
	for range pb.rc.size.probeReps {
		configAt = time.Time{}
		if est, _, ok = pb.sweep(pb.grid, core.WithSampling(core.SamplingFast), hook); !ok {
			return
		}
		windowS = append(windowS, configAt.Sub(replayAt).Seconds())
	}
	pb.c.windowsS = median(windowS)
	rec.set("sampling.windows_s", windowS...)
	var errs, widths []float64
	covered := 0
	for i, e := range est {
		misses := exact[i].Stats.Misses
		if misses == 0 || e.Sampling == nil {
			continue
		}
		m := float64(misses)
		errs = append(errs, 100*math.Abs(float64(e.Stats.Misses)-m)/m)
		widths = append(widths, 100*float64(e.Sampling.MissHigh-e.Sampling.MissLow)/m)
		if e.Sampling.MissLow <= misses && misses <= e.Sampling.MissHigh {
			covered++
		}
	}
	if rec.check(len(errs) > 0, "no sampled estimate could be graded") {
		var sum float64
		for _, e := range errs {
			sum += e
		}
		rec.set("sampling.err_pct", sum/float64(len(errs)))
		rec.set("sampling.ci_width_pct", median(widths))
		rec.set("sampling.ci_coverage", float64(covered)/float64(len(errs)))
	}
}

// planner times compiling the workload's grid into a plan.
func (pb *prober) planner() {
	const plans = 1000
	var passes int
	sec, _ := pb.reps("core.plan", func() (time.Duration, uint64) {
		t0 := time.Now()
		for range plans {
			plan, err := core.PlanSweep(pb.grid, pb.engine)
			if err != nil {
				return 0, 0
			}
			passes = plan.Passes()
		}
		return time.Since(t0), uint64(passes)
	})
	pb.rc.rec.set("core.plan_us", sec*1e6/plans)
	pb.rc.rec.set("core.passes", float64(passes))
}

// concurrency records what each off-by-default concurrency axis buys on
// this machine: one sweep with the option over one without, results
// required to match.
func (pb *prober) concurrency() {
	rec := pb.rc.rec
	sp := pb.rc.root.StartChild("probe/concurrency")
	defer sp.End()
	live := func(opts ...core.RunOption) ([]core.LLCResult, float64) {
		t0 := time.Now()
		res, _, err := core.LLCSweep(pb.bench, pb.p, pb.pc, pb.emulated, opts...)
		rec.check(err == nil, "live sweep: %v", err)
		return res, time.Since(t0).Seconds()
	}
	serial, serialS := live()
	batched, batchedS := live(core.WithBusBatch(0))
	rec.check(sameResults(serial, batched), "batched bus changed the results")
	rec.set("fsb.batched_speedup", serialS/batchedS)

	emulate := core.WithEngine(core.EngineEmulate)
	plain, plainD, ok1 := pb.sweep(pb.emulated, emulate)
	sharded, shardedD, ok2 := pb.sweep(pb.emulated, emulate, core.WithBankShards(0))
	if ok1 && ok2 {
		rec.check(sameResults(plain, sharded), "bank sharding changed the results")
		rec.set("dragonhead.sharded_speedup", plainD.Seconds()/shardedD.Seconds())
	}

	// The -j axis is par.ForEach over independent runs. Here the runs are
	// four replays of the capture into one emulator each.
	const jobs = 4
	replays := func(limit int) (float64, uint64) {
		misses := make([]uint64, jobs)
		t0 := time.Now()
		err := par.ForEach(limit, jobs, func(i int) error {
			e, err := dragonhead.New(bankFit(pb.emulated[0]))
			if err != nil {
				return err
			}
			for _, r := range pb.refs {
				e.OnRef(r)
			}
			e.Finalize()
			misses[i] = e.Stats().Misses
			return nil
		})
		rec.check(err == nil, "parallel replays: %v", err)
		return time.Since(t0).Seconds(), misses[0] + misses[jobs-1]
	}
	oneS, oneMisses := replays(1)
	allS, allMisses := replays(0)
	rec.check(oneMisses == allMisses, "parallel jobs changed the results")
	rec.set("par.jobs_speedup", oneS/allS)
}

func sameResults(a, b []core.LLCResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameResult(a[i], b[i]) {
			return false
		}
	}
	return true
}

// telemetryCost is what WithTelemetry adds to one warm sweep of the
// workload's grid, its manifest discarded.
func (pb *prober) telemetryCost() {
	sp := pb.rc.root.StartChild("probe/telemetry")
	defer sp.End()
	sink := telemetry.NewSink(telemetry.NewRegistry(), telemetry.NewManifestWriter(io.Discard), nil)
	var off, on []float64
	for range pb.rc.size.abPairs {
		_, d, ok := pb.sweep(pb.grid)
		if !ok {
			return
		}
		off = append(off, d.Seconds())
		if _, d, ok = pb.sweep(pb.grid, core.WithTelemetry(sink)); !ok {
			return
		}
		on = append(on, d.Seconds())
	}
	pb.rc.rec.set("telemetry.enabled_overhead_pct", 100*(median(on)/median(off)-1))
}
