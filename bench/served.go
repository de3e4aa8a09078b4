package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmpmem/internal/cache"
	"cmpmem/internal/core"
	"cmpmem/internal/server"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/workloads"
)

var servedMix = workload{
	name: "served-mix",
	why:  "distinct sweep specs, then cached re-submissions, through an in-process cosimd by closed-loop clients: the server is a thin shell on the first and the only layer working on the second",
	timed: func(rc *runCtx) {
		servedWorkload(rc).timed(rc)
	},
	traced: func(rc *runCtx) {
		servedWorkload(rc).traced(rc)
	},
}

// mix is a served traffic mix in cosimload's shape: seeds x grids
// distinct specs that share one capture per seed, each a two-size grid
// the analytic engine answers, then every spec re-submitted repeat
// times to be answered from the result cache.
type mix struct {
	bench  string
	seeds  int
	grids  int
	repeat int

	specs  []*server.SweepSpec
	bodies [][]byte // the specs as request bodies
	order  []int    // phase A submission order, a seeded shuffle
	again  []int    // phase B submission order
}

// servedWorkload is the served-mix workload's mix. PLSA's capture is the
// smallest of the eight (half a million bus events), so a request costs
// tens of milliseconds and the serving layer is a visible share of it.
func servedWorkload(rc *runCtx) *mix {
	bench := "PLSA"
	if rc.size.bench != "" {
		bench = rc.size.bench
	}
	return newMix(rc, bench, rc.size.served, 8, rc.size.servedSeeds, rc.size.servedGrids)
}

func newMix(rc *runCtx, bench string, scale float64, threads, seeds, grids int) *mix {
	m := &mix{bench: bench, seeds: seeds, grids: grids, repeat: rc.size.servedRepeat}
	sizes := []uint64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	for s := range seeds {
		for v := range grids {
			// Twelve distinct pairs from six sizes: neighbours first,
			// then sizes two apart.
			a := v % len(sizes)
			b := (a + 1 + v/len(sizes)) % len(sizes)
			spec := &server.SweepSpec{
				Workload: bench,
				Seed:     rc.opts.seed + int64(s),
				Scale:    scale,
				Platform: server.PlatformSpec{Threads: threads, Seed: rc.opts.seed},
				Grids: [][]server.ConfigSpec{{
					{SizeBytes: sizes[a], LineSize: 64, Assoc: 8},
					{SizeBytes: sizes[b], LineSize: 64, Assoc: 8},
				}},
			}
			spec.Normalize()
			body, err := json.Marshal(spec)
			rc.rec.check(err == nil, "spec: %v", err)
			m.specs = append(m.specs, spec)
			m.bodies = append(m.bodies, body)
		}
	}
	rng := rand.New(rand.NewSource(rc.opts.seed))
	m.order = rng.Perm(len(m.specs))
	for range m.repeat {
		m.again = append(m.again, rng.Perm(len(m.specs))...)
	}
	return m
}

func (m *mix) seedOf(spec int) int { return spec / m.grids }

// request is one submission as its caller saw it.
type request struct {
	spec    int
	id      string
	start   time.Time
	submit  time.Duration // POST round trip
	latency time.Duration // POST to the terminal SSE frame
	cached  bool
	err     error
}

// round is one pass of the mix through a fresh server.
type round struct {
	exec, cached []request
	wall         float64 // both phases' wall seconds: what bench.sweep_s reports
	execWall     float64 // phase A wall seconds, all clients
	execCPU      float64 // process CPU seconds over phase A
	status       server.Statusz
	results      [][]byte            // per spec, the served result body
	trees        []*server.JobStatus // per request, when asked for
}

// clients is the closed-loop client count: the sandbox has two hardware
// threads, and the load generator shares them with the server.
func clients() int { return min(runtime.NumCPU(), 2) }

// run drives the mix through a fresh in-process server: phase A submits
// each distinct spec once, phase B re-submits them all. Each client
// sends its next request when the previous one's terminal frame has
// arrived — callers wait for their sweep, so the loop is closed.
func (m *mix) run(withTrees bool) (*round, error) {
	srv := server.New(server.Config{})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	phase := func(order []int) []request {
		out := make([]request, len(order))
		next := make(chan int)
		var wg sync.WaitGroup
		for range clients() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One connection per client, as separate callers have.
				tr := &http.Transport{}
				defer tr.CloseIdleConnections()
				hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
				for i := range next {
					out[i] = submit(hc, ts.URL, m.bodies[order[i]])
					out[i].spec = order[i]
				}
			}()
		}
		for i := range order {
			next <- i
		}
		close(next)
		wg.Wait()
		return out
	}

	r := &round{}
	c0, t0 := cpuSeconds(), time.Now()
	r.exec = phase(m.order)
	r.execWall, r.execCPU = time.Since(t0).Seconds(), cpuSeconds()-c0
	r.cached = phase(m.again)
	r.wall = time.Since(t0).Seconds()

	if err := getJSON(ts.URL+"/v1/statusz", &r.status); err != nil {
		return nil, err
	}
	r.results = make([][]byte, len(m.specs))
	for _, q := range r.exec {
		if q.err != nil {
			continue
		}
		var st server.JobStatus
		if err := getJSON(ts.URL+"/v1/sweeps/"+q.id, &st); err != nil {
			return nil, err
		}
		r.results[q.spec] = st.Result
		if withTrees {
			r.trees = append(r.trees, &st)
		}
	}
	if withTrees {
		for _, q := range r.cached {
			if q.err != nil {
				continue
			}
			var st server.JobStatus
			if err := getJSON(ts.URL+"/v1/sweeps/"+q.id, &st); err != nil {
				return nil, err
			}
			r.trees = append(r.trees, &st)
		}
	}
	return r, nil
}

// submit posts one spec and follows its event stream to the terminal
// frame. Anything but a 201 and a done frame is a failed request; a 429
// is not retried.
func submit(hc *http.Client, base string, body []byte) request {
	q := request{start: time.Now()}
	resp, err := hc.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		q.err = err
		return q
	}
	var st server.JobStatus
	err = decodeBody(resp, http.StatusCreated, &st)
	q.submit = time.Since(q.start)
	if err != nil {
		q.err = err
		return q
	}
	q.id, q.cached = st.ID, st.Cached

	resp, err = hc.Get(base + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		q.err = err
		return q
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		q.err = fmt.Errorf("event stream: HTTP %d", resp.StatusCode)
		return q
	}
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok && (name == server.StateDone || name == server.StateFailed) {
			terminal = name
		}
	}
	q.latency = time.Since(q.start)
	switch {
	case sc.Err() != nil:
		q.err = sc.Err()
	case terminal != server.StateDone:
		q.err = fmt.Errorf("job %s ended %q", st.ID, terminal)
	}
	return q
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, v)
}

// served accumulates rounds of one mix and checks them.
type served struct {
	m   *mix
	rec *record
	// want is the result of the first spec of each seed, recomputed here
	// through ExecuteSpec with no server and no store.
	want         map[int][]byte
	events       []float64 // bus events of each seed's capture
	instructions uint64    // of one capture per seed
	rounds       []*round
	dig          string
}

// newServed recomputes one spec per seed locally, untimed: the bytes the
// server must return for it, and the size of each seed's capture.
func newServed(m *mix, rec *record) *served {
	s := &served{m: m, rec: rec, want: map[int][]byte{}, events: make([]float64, m.seeds)}
	for seed := range m.seeds {
		i := seed * m.grids
		res, err := server.ExecuteSpec(m.specs[i])
		if !rec.check(err == nil, "local recompute of spec %d: %v", i, err) {
			return nil
		}
		body, err := json.Marshal(res)
		if !rec.check(err == nil, "local recompute of spec %d: %v", i, err) {
			return nil
		}
		s.want[i] = body
		s.events[seed] = float64(res.Summary.BusEvents)
		s.instructions += res.Summary.Instructions
	}
	return s
}

// report writes the workload's identity into its record.
func (s *served) report() {
	rec := s.rec
	rec.SimDigest = s.dig
	rec.Counts["instructions"] = s.instructions
	for _, e := range s.events {
		rec.Counts["bus_events"] += uint64(e)
	}
	rec.Counts["specs"] = uint64(len(s.m.specs))
	rec.Counts["requests_per_round"] = uint64(len(s.m.order) + len(s.m.again))
}

// round runs the mix once and checks everything it returned: every
// request one operation, plus the cache behaviour, plus one served
// result per seed byte-compared with the local recompute.
func (s *served) round(withTrees bool) (*round, bool) {
	rec := s.rec
	r, err := s.m.run(withTrees)
	if !rec.check(err == nil, "served round: %v", err) {
		return nil, false
	}
	ok := true
	fresh, hits := 0, 0
	for _, q := range r.exec {
		ok = rec.check(q.err == nil, "request for spec %d: %v", q.spec, q.err) && ok
		if !q.cached {
			fresh++
		}
	}
	for _, q := range r.cached {
		ok = rec.check(q.err == nil, "repeat request for spec %d: %v", q.spec, q.err) && ok
		if q.cached {
			hits++
		}
	}
	if !ok {
		return nil, false
	}
	ok = rec.check(fresh == len(r.exec) && hits == len(r.cached),
		"%d of %d first submissions executed and %d of %d repeats were cache hits", fresh, len(r.exec), hits, len(r.cached))
	for i, want := range s.want {
		ok = rec.check(bytes.Equal(r.results[i], want), "served result of spec %d differs from the local recompute", i) && ok
	}
	d := digest(r.results)
	if s.dig == "" {
		s.dig = d
	}
	ok = rec.check(d == s.dig, "served results differ from the first round's") && ok
	s.rounds = append(s.rounds, r)
	return r, ok
}

// perRef is each executed request's latency per bus event of its sweep.
func (s *served) perRef(r *round) []float64 {
	out := make([]float64, len(r.exec))
	for i, q := range r.exec {
		out[i] = float64(q.latency.Nanoseconds()) / s.events[s.m.seedOf(q.spec)]
	}
	return out
}

// roundEvents is the bus events of all the sweeps one round executes.
func (s *served) roundEvents() float64 {
	var n float64
	for _, e := range s.events {
		n += e * float64(s.m.grids)
	}
	return n
}

func (m *mix) timed(rc *runCtx) {
	rec := rc.rec
	s := newServed(m, rec)
	if s == nil {
		return
	}
	// Set-up is one untimed round: like every round it starts a fresh
	// server, so nothing carries over but the warmed process.
	setUp := func() (float64, bool) {
		runtime.GC()
		t0 := time.Now()
		_, ok := s.round(false)
		return time.Since(t0).Seconds(), ok
	}
	setup, ok := setUp()
	if !ok {
		return
	}
	s.rounds = nil
	start := time.Now()
	for len(s.rounds) < rc.size.minIters || time.Since(start).Seconds() < rc.budget() {
		runtime.GC()
		if _, ok := s.round(false); !ok {
			return
		}
	}
	rss := peakRSSMB()
	var wall, cpu []float64
	for _, r := range s.rounds {
		wall = append(wall, s.perRef(r)...)
		cpu = append(cpu, r.execCPU*1e9/s.roundEvents())
	}
	rec.set("sweep_ns_per_ref", wall...)
	rec.set("cpu_ns_per_ref", cpu...)
	rec.set("peak_rss_mb", rss)
	s.report()

	setups := []float64{setup}
	for len(setups) < rc.size.setupReps {
		sec, ok := setUp()
		if !ok {
			return
		}
		setups = append(setups, sec)
	}
	rec.set("setup_s", setups...)
}

func (m *mix) traced(rc *runCtx) {
	rec := rc.rec
	s := newServed(m, rec)
	if s == nil {
		return
	}
	sp := rc.root.StartChild("setup")
	_, ok := s.round(false)
	sp.End()
	if !ok {
		return
	}
	s.rounds = nil

	// The server traces every request whether or not anyone reads the
	// trees, so a traced round differs from a plain one only in the
	// status fetches after its two phases, which round.wall leaves out.
	var plain []iteration
	var plainS, spannedS []float64
	for i := range rc.size.abPairs {
		var r *round
		it := measure(func() { r, ok = s.round(false) })
		if !ok {
			return
		}
		plain, plainS = append(plain, it), append(plainS, r.wall)
		isp := rc.root.StartChild("round")
		isp.SetAttr("id", strconv.Itoa(i))
		runtime.GC()
		r, ok = s.round(true)
		isp.End()
		if !ok {
			return
		}
		spannedS = append(spannedS, r.wall)
		attachRequests(isp, r)
	}
	rec.set("bench.sweep_s", plainS...)
	rec.set("bench.trace_overhead_pct", 100*(median(spannedS)/median(plainS)-1))
	setRuntime(rec, plain)
	s.report()
	// For the served workload the reconciliation is read off the
	// server's own span trees.
	if outside := s.setServerMetrics(rc); len(outside) > 0 {
		rec.set("core.unattributed_share", median(outside))
	}

	spec := m.specs[0]
	grid := make([]cache.Config, len(spec.Grids[0]))
	for i, c := range spec.Grids[0] {
		grid[i] = cache.Config{Name: c.Name, Size: c.SizeBytes, LineSize: c.LineSize, Assoc: c.Assoc}
	}
	pb := newProber(rc, m.bench, workloads.Params{Seed: spec.Seed, Scale: spec.Scale},
		core.PlatformConfig{Threads: spec.Platform.Threads, Seed: spec.Platform.Seed}, grid, core.EngineAuto)
	if pb != nil {
		pb.all()
	}
}

// attachRequests hangs one span per request under the round's span, the
// server's own span tree for that request beneath it.
func attachRequests(parent *telemetry.Span, r *round) {
	byID := map[string]*server.JobStatus{}
	for _, st := range r.trees {
		byID[st.ID] = st
	}
	for _, q := range append(append([]request(nil), r.exec...), r.cached...) {
		sp := parent.AddTimedChild("request", q.start.UnixNano(), uint64(q.latency))
		sp.SetAttr("id", q.id)
		sp.SetAttr("cached", strconv.FormatBool(q.cached))
		if st := byID[q.id]; st != nil && st.Trace != nil {
			sp.Children = append(sp.Children, st.Trace)
		}
	}
}

// setServerMetrics reports the serving layer from the rounds run so
// far: client-side latencies, the phases of the request span trees the
// server exposes on terminal jobs (read, not re-timed), and statusz. It
// returns, per executed request, the share of the caller's wait that no
// span of the server's tree covers.
func (s *served) setServerMetrics(rc *runCtx) (outside []float64) {
	rec := rc.rec
	var submitUS, cachedMS, queueMS, lookupUS, execMS, overheadMS, perS []float64
	last := s.rounds[len(s.rounds)-1]
	for _, r := range s.rounds {
		perS = append(perS, float64(len(r.exec))/r.execWall)
		latency := map[string]time.Duration{}
		for _, q := range r.exec {
			submitUS = append(submitUS, float64(q.submit.Microseconds()))
			latency[q.id] = q.latency
		}
		for _, q := range r.cached {
			submitUS = append(submitUS, float64(q.submit.Microseconds()))
			cachedMS = append(cachedMS, q.latency.Seconds()*1e3)
		}
		for _, st := range r.trees {
			if st.Trace == nil {
				continue
			}
			var exec uint64
			for _, c := range st.Trace.Children {
				switch {
				case c.Name == "queue_wait":
					queueMS = append(queueMS, float64(c.WallNS)/1e6)
				case c.Name == "cache_lookup":
					lookupUS = append(lookupUS, float64(c.WallNS)/1e3)
				case strings.Contains(c.Name, "sweep/"):
					exec += c.WallNS
				}
			}
			if lat, executed := latency[st.ID]; executed && exec > 0 {
				execMS = append(execMS, float64(exec)/1e6)
				overheadMS = append(overheadMS, (lat.Seconds()-float64(exec)/1e9)*1e3)
				outside = append(outside, 1-float64(st.Trace.SerialChildSum())/float64(lat.Nanoseconds()))
			}
		}
	}
	rec.set("server.submit_us_p50", median(submitUS))
	rec.set("server.cached_ms_p50", median(cachedMS))
	rec.set("server.cached_ms_p95", percentile(cachedMS, 0.95))
	rec.set("server.sweeps_per_s", perS...)
	if rec.check(len(execMS) > 0 && len(queueMS) > 0 && len(lookupUS) > 0, "the server exposed no request span trees") {
		rec.set("server.queue_wait_ms_p50", median(queueMS))
		rec.set("server.cache_lookup_us_p50", median(lookupUS))
		rec.set("server.exec_ms_p50", median(execMS))
		rec.set("server.overhead_ms_p50", median(overheadMS))
	}
	rec.set("server.trace_executions", float64(last.status.TraceStore.Misses))
	rec.set("server.singleflight_waits", float64(last.status.TraceStore.Waits))
	rec.set("server.result_cache_hits", float64(last.status.ResultCache.Hits))
	rec.set("server.rejected_429", float64(last.status.Jobs.Rejected))

	const decodes, marshals = 200, 20
	body := s.m.bodies[0]
	sp := rc.root.StartChild("probe/server.codec")
	defer sp.End()
	var err error
	t0 := time.Now()
	for range decodes {
		var spec *server.SweepSpec
		if spec, err = server.DecodeSpec(bytes.NewReader(body)); err != nil {
			break
		}
		_ = spec.Hash()
	}
	if rec.check(err == nil, "spec decode: %v", err) {
		rec.set("server.spec_decode_us", time.Since(t0).Seconds()*1e6/decodes)
	}
	var res server.SweepResult
	if !rec.check(json.Unmarshal(last.results[0], &res) == nil, "served result does not parse") {
		return outside
	}
	t0 = time.Now()
	for range marshals {
		if _, err = json.Marshal(&res); err != nil {
			break
		}
	}
	if rec.check(err == nil, "result marshal: %v", err) {
		rec.set("server.marshal_us", time.Since(t0).Seconds()*1e6/marshals)
	}
	return outside
}

// servedProbe gives a library workload its server.* numbers: a small mix
// of the workload's own dataset and platform through a fresh server.
func (pb *prober) servedProbe() {
	rc := pb.rc
	sp := rc.root.StartChild("probe/server")
	defer sp.End()
	m := newMix(rc, pb.bench, pb.p.Scale, pb.pc.Threads, 1, rc.size.probeGrids)
	s := newServed(m, rc.rec)
	if s == nil {
		return
	}
	r, ok := s.round(true)
	if !ok {
		return
	}
	attachRequests(sp, r)
	s.setServerMetrics(rc)
}
