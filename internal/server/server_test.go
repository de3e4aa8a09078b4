package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpmem/internal/core"
	"cmpmem/internal/telemetry"
)

// tinySpecJSON builds a fast spec: SNP at 1/512 scale on 2 threads.
func tinySpecJSON(seed int64, sizes ...uint64) string {
	var cfgs []string
	for _, sz := range sizes {
		cfgs = append(cfgs, fmt.Sprintf(`{"size_bytes":%d,"line_size":64,"assoc":4}`, sz))
	}
	return fmt.Sprintf(`{
		"workload": "SNP", "seed": %d, "scale": %g,
		"platform": {"threads": 2},
		"grids": [[%s]]
	}`, seed, 1.0/512, strings.Join(cfgs, ","))
}

// testServer spins up a Server plus its httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// submit POSTs a spec and returns the decoded 201 status.
func submit(t *testing.T, ts *httptest.Server, tenant, spec string) JobStatus {
	t.Helper()
	st, code := submitCode(t, ts, tenant, spec)
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/sweeps = %d, want 201", code)
	}
	return st
}

func submitCode(t *testing.T, ts *httptest.Server, tenant, spec string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweeps", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode 201 body: %v", err)
		}
	}
	return st, resp.StatusCode
}

// await polls a job to its terminal state.
func await(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at deadline", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServedResultBitMatchesCombinedSweep is acceptance criterion (a):
// the result bytes a job returns equal a locally marshaled SweepResult
// built from a direct CombinedSweep call on the same spec.
func TestServedResultBitMatchesCombinedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	_, ts := testServer(t, Config{Workers: 1})
	specJSON := tinySpecJSON(3, 1<<18, 1<<20)
	st := await(t, ts, submit(t, ts, "bitmatch", specJSON).ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}

	spec, err := DecodeSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	call, err := spec.lower()
	if err != nil {
		t.Fatal(err)
	}
	results, sum, err := core.CombinedSweep(call.name, call.p, call.pc, call.grids, call.opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&SweepResult{
		Workload: call.name,
		SpecHash: spec.Hash(),
		Engine:   "auto",
		Summary:  sum,
		Grids:    results,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(st.Result), want) {
		t.Errorf("served result does not bit-match CombinedSweep:\nserved: %.200s\ndirect: %.200s", st.Result, want)
	}
}

// TestConcurrentIdenticalSpecsExecuteOnce is acceptance criterion (b):
// two tenants submitting the same spec at the same time cost one trace
// execution — the second rides the tracestore's single-flight.
func TestConcurrentIdenticalSpecsExecuteOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	var barrier sync.WaitGroup
	barrier.Add(2)
	s, ts := testServer(t, Config{Workers: 2})
	// Hold both jobs at the starting line so neither can finish (and
	// populate the result cache) before the other begins executing.
	s.preRun = func(*job) {
		barrier.Done()
		barrier.Wait()
	}
	specJSON := tinySpecJSON(5, 1<<18)
	id1 := submit(t, ts, "alice", specJSON).ID
	id2 := submit(t, ts, "bob", specJSON).ID
	st1 := await(t, ts, id1)
	st2 := await(t, ts, id2)
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("jobs failed: %q / %q", st1.Error, st2.Error)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Error("identical specs returned different result bytes")
	}
	stats := s.store.Stats()
	if stats.Misses != 1 {
		t.Errorf("trace executions = %d, want 1 (single-flight)", stats.Misses)
	}
	if stats.Waits+stats.Hits < 1 {
		t.Errorf("no evidence of sharing: waits=%d hits=%d", stats.Waits, stats.Hits)
	}
}

// TestJobPanicIsContained: a job that panics fails alone — with the
// stack in its error and on its sealed trace, counted in
// cosimd_job_panics_total — and the one worker goes on to answer the
// next job with the bytes a direct ExecuteSpec returns.
func TestJobPanicIsContained(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	s, ts := testServer(t, Config{Workers: 1})
	reg := s.Registry()
	s.preRun = func(j *job) {
		if j.spec.Seed == 41 {
			panic("emulator fail-loud")
		}
	}
	bad := await(t, ts, submit(t, ts, "doomed", tinySpecJSON(41, 1<<18)).ID)
	goodSpec := tinySpecJSON(42, 1<<18)
	good := await(t, ts, submit(t, ts, "bystander", goodSpec).ID)

	if bad.State != StateFailed || !strings.Contains(bad.Error, "emulator fail-loud") || !strings.Contains(bad.Error, "runJob") {
		t.Errorf("panicking job: state %s, error %q; want failed with the panic and its stack", bad.State, bad.Error)
	}
	if bad.Trace == nil || !strings.Contains(bad.Trace.Attrs["panic"], "emulator fail-loud") {
		t.Errorf("panicking job's sealed trace carries no panic attribute: %+v", bad.Trace)
	}
	if n := reg.Counter("cosimd_job_panics_total").Value(); n != 1 {
		t.Errorf("cosimd_job_panics_total = %d, want 1", n)
	}
	if good.State != StateDone {
		t.Fatalf("the job after the panic: state %s, error %q", good.State, good.Error)
	}
	spec, err := DecodeSpec(strings.NewReader(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good.Result, want) {
		t.Error("the job after the panic does not bit-match a direct ExecuteSpec")
	}
}

// TestAdmissionControl429 is acceptance criterion (c): a submit past
// the queue cap is rejected with 429 and a Retry-After hint.
func TestAdmissionControl429(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 1})
	s.preRun = func(*job) { <-gate }
	defer close(gate)

	spec := tinySpecJSON(9, 1<<18)
	first := submit(t, ts, "capped", spec)
	// Wait for the single worker to dequeue the first job (and park on
	// the gate), so the queue slot is provably free again.
	for i := 0; s.queue.Depth() != 0; i++ {
		if i > 500 {
			t.Fatal("worker never dequeued the first job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	submit(t, ts, "capped", tinySpecJSON(10, 1<<18)) // fills the only queue slot

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweeps", strings.NewReader(tinySpecJSON(11, 1<<18)))
	req.Header.Set("X-Tenant", "capped")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The rejected job must not be queryable.
	if first.ID == "" {
		t.Fatal("first job had no id")
	}
}

// TestSSEStreamTerminatesWithDone is acceptance criterion (d): the
// events stream carries the job lifecycle and ends after a final done
// event (the server closes the stream; reads hit EOF).
func TestSSEStreamTerminatesWithDone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	_, ts := testServer(t, Config{Workers: 1})
	id := submit(t, ts, "sse", tinySpecJSON(13, 1<<18, 1<<19)).ID

	client := &http.Client{Timeout: 120 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // terminates only because the server closes the stream
		if line := sc.Text(); strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	if got := events[len(events)-1]; got != StateDone {
		t.Fatalf("final event = %q, want done (sequence: %v)", got, events)
	}
	if events[0] != StateQueued {
		t.Errorf("first event = %q, want queued", events[0])
	}
	seen := map[string]bool{}
	for _, e := range events {
		seen[e] = true
	}
	if !seen["config"] {
		t.Errorf("no per-config completion events in %v", events)
	}
	// A late subscriber gets the full history replayed and the same
	// terminal event, then EOF.
	resp2, err := client.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var replay []string
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		if line := sc2.Text(); strings.HasPrefix(line, "event: ") {
			replay = append(replay, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(replay) != len(events) {
		t.Errorf("history replay has %d events, live stream had %d", len(replay), len(events))
	}
}

// TestResultCacheServesRepeats: a repeated spec completes instantly
// from the result cache, marked cached, with identical bytes.
func TestResultCacheServesRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	_, ts := testServer(t, Config{Workers: 1})
	spec := tinySpecJSON(17, 1<<18)
	st1 := await(t, ts, submit(t, ts, "first", spec).ID)
	if st1.State != StateDone {
		t.Fatalf("first job failed: %s", st1.Error)
	}
	st2 := submit(t, ts, "second", spec)
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("repeat = state %s cached %v, want instant cached done", st2.State, st2.Cached)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Error("cached result differs from original")
	}
}

// TestBurstAcrossTenants: 8 tenants submit 4 requests each at once over
// an overlapping mix — 2 seeds x 4 grids, so 8 distinct results that
// share 2 captures. Every request completes and leaves one request
// manifest line, each seed's guest executes once, and the repeats are
// answered by the result cache.
func TestBurstAcrossTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	const tenants, perTenant, seeds, grids = 8, 4, 2, 4
	manifestPath := filepath.Join(t.TempDir(), "manifest.jsonl")
	man, err := telemetry.OpenManifestFile(manifestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	s, ts := testServer(t, Config{Workers: 2, Manifest: man})

	sizes := []uint64{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}
	var specs []string
	for seed := 1; seed <= seeds; seed++ {
		for v := 0; v < grids; v++ {
			specs = append(specs, tinySpecJSON(int64(seed), sizes[v], sizes[v+1]))
		}
	}
	var ids []string
	for i := 0; i < perTenant; i++ {
		for tn := 0; tn < tenants; tn++ {
			spec := specs[(tn*perTenant+i)%len(specs)]
			ids = append(ids, submit(t, ts, fmt.Sprintf("tenant-%d", tn), spec).ID)
		}
	}
	cached := 0
	for _, id := range ids {
		st := await(t, ts, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
		}
		if st.Cached {
			cached++
		}
	}

	if n := s.store.Stats().Misses; n != seeds {
		t.Errorf("trace executions = %d, want %d (one capture per seed)", n, seeds)
	}
	// Every distinct spec executes at least once, and at most once per
	// worker: a job dequeued after the first execution of its spec
	// finished finds the result cached.
	if fresh := len(ids) - cached; fresh < len(specs) || fresh > 2*len(specs) {
		t.Errorf("%d of %d requests executed, want %d to %d", fresh, len(ids), len(specs), 2*len(specs))
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	requests := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m telemetry.Manifest
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("manifest line: %v", err)
		}
		if m.Kind == "request" {
			requests++
		}
	}
	if requests != len(ids) {
		t.Errorf("%d request manifest lines, want %d", requests, len(ids))
	}
}

// TestDistinctTenantsStayBounded: X-Tenant is chosen by the client, so
// a thousand distinct values must leave neither a thousand queue
// records nor a thousand metric series behind. Tenants without a
// configured weight share the "other" series, and a drained tenant's
// queue record goes.
func TestDistinctTenantsStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	const n = 1000
	gate := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, QueueCap: n + 1,
		TenantWeights: map[string]int{"named": 1}})
	reg := s.Registry()
	s.preRun = func(*job) { <-gate }

	// Hold the worker so every request goes through the queue, then let
	// the first execute and the rest find its result cached.
	spec := tinySpecJSON(23, 1<<18)
	ids := []string{submit(t, ts, "named", spec).ID}
	for i := 0; i < n; i++ {
		ids = append(ids, submit(t, ts, fmt.Sprintf("tenant-%d", i), spec).ID)
	}
	close(gate)
	for _, id := range ids {
		if st := await(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
		}
	}

	s.queue.mu.Lock()
	records := len(s.queue.tenants)
	s.queue.mu.Unlock()
	if records != 0 {
		t.Errorf("%d tenant queue records left after the queue drained, want 0", records)
	}
	snap := reg.Snapshot()
	var series []string
	for name := range snap.Gauges {
		if strings.Contains(name, "_tenant_") {
			series = append(series, name)
		}
	}
	for name := range snap.Histograms {
		if strings.Contains(name, "_tenant_") {
			series = append(series, name)
		}
	}
	// A queue-depth gauge and at most five phase histograms for each of
	// "named" and "other".
	if len(series) > 12 {
		t.Errorf("%d per-tenant metric series after %d distinct tenants, want at most 12", len(series), n+1)
	}
	if total := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); total > n/4 {
		t.Errorf("registry holds %d metrics after %d distinct tenants", total, n+1)
	}
	if d := reg.Gauge("cosimd_tenant_queue_depth_other").Value(); d != 0 {
		t.Errorf("shared queue-depth gauge = %d after the queue drained, want 0", d)
	}
}

// TestBadRequests: malformed specs and oversized tenants are 400s, an
// unknown job is a 404, and /v1 endpoints answer.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	if _, code := submitCode(t, ts, "t", `{"workload":"NOPE"}`); code != http.StatusBadRequest {
		t.Errorf("bad spec = %d, want 400", code)
	}
	if _, code := submitCode(t, ts, strings.Repeat("x", 100), tinySpecJSON(1, 1<<18)); code != http.StatusBadRequest {
		t.Errorf("oversize tenant = %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	for _, ep := range []string{"/v1/healthz", "/v1/version", "/v1/statusz", "/metrics"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", ep, resp.StatusCode)
		}
	}
}

// TestShutdownFailsQueuedJobs: jobs still queued at shutdown terminate
// failed instead of hanging their watchers.
func TestShutdownFailsQueuedJobs(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueCap: 4})
	s.preRun = func(*job) { <-gate }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running := submit(t, ts, "t", tinySpecJSON(21, 1<<18))
	for i := 0; s.queue.Depth() != 0; i++ {
		if i > 500 {
			t.Fatal("worker never dequeued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued := submit(t, ts, "t", tinySpecJSON(22, 1<<18))

	// Shutdown drains the queue (failing the queued job) before it waits
	// on workers; only then release the gate so the worker can finish —
	// otherwise the worker could legitimately pop the queued job first.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	shutErr := make(chan error, 1)
	go func() { shutErr <- s.Shutdown(ctx) }()
	for i := 0; !s.lookup(queued.ID).isTerminal(); i++ {
		if i > 500 {
			t.Fatal("shutdown never failed the queued job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := s.lookup(queued.ID).status(); st.State != StateFailed {
		t.Errorf("queued job state after shutdown = %s, want failed", st.State)
	}
	// The running job was released by the gate before shutdown waited,
	// so it must have finished one way or the other.
	if st := s.lookup(running.ID).status(); st.State != StateDone && st.State != StateFailed {
		t.Errorf("running job state after shutdown = %s, want terminal", st.State)
	}
}
