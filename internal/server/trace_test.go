package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmpmem/internal/telemetry"
)

// TestRequestTraceReconciles is the tracing acceptance criterion: a
// completed job exposes a sealed span tree whose serving phases —
// queue wait, cache lookups, and the execution tree — account for the
// request's measured wall latency, statusz's queue-wait row is read
// from the same tree, and the manifest stream carries it.
func TestRequestTraceReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.jsonl")
	man, err := telemetry.OpenManifestFile(manifestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer man.Close()
	s, ts := testServer(t, Config{Workers: 1, Manifest: man,
		TenantWeights: map[string]int{"tracer": 1}})

	st := await(t, ts, submit(t, ts, "tracer", tinySpecJSON(31, 1<<18, 1<<19)).ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.TraceID == "" || st.Trace == nil {
		t.Fatal("terminal job must expose its trace")
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(st.TraceID) {
		t.Errorf("trace_id = %q, want 16 lowercase hex digits", st.TraceID)
	}
	root := st.Trace
	if root.Name != "request" {
		t.Fatalf("root span = %q, want request", root.Name)
	}
	if root.WallNS == 0 {
		t.Fatal("root span not sealed")
	}
	if root.Attrs["tenant"] != "tracer" || root.Attrs["job"] != st.ID {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	queueWait := root.Find(phaseQueueWait)
	if queueWait == nil {
		t.Fatal("no queue_wait span")
	}
	if root.Find(phaseCacheLookup) == nil {
		t.Error("no cache_lookup span")
	}
	var sweep *telemetry.Span
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "plansweep/") {
			sweep = c
		}
	}
	if sweep == nil {
		t.Fatalf("root children = %+v, want a plansweep/* span", root.Children)
	}
	if sweep.Find("store") == nil || sweep.Find("capture") == nil {
		t.Error("execution tree missing store/capture spans")
	}

	// Reconciliation: the root's serial children partition the request
	// timeline up to handler overhead (result marshaling, event emits).
	sum := root.SerialChildSum()
	gap := root.WallNS - sum
	if sum > root.WallNS {
		t.Fatalf("children (%d ns) exceed root (%d ns)", sum, root.WallNS)
	}
	// Tolerance: 25% of root or 20ms, whichever is larger — fixed
	// per-request overheads dominate on a deliberately tiny sweep.
	tol := root.WallNS / 4
	if tol < 20_000_000 {
		tol = 20_000_000
	}
	if gap > tol {
		t.Errorf("unattributed time %d ns of %d ns root exceeds tolerance %d ns", gap, root.WallNS, tol)
	}

	// statusz reads the job's one wait from the same span, in whole µs.
	us := queueWait.WallNS / 1000
	want := Percentiles{Count: 1, P50: us, P95: us, P99: us}
	stz := statusz(t, s)
	if stz.QueueWait["tracer"] != want || stz.QueueWait["all"] != want {
		t.Errorf("statusz queue_wait = %+v, want tracer and all %+v", stz.QueueWait, want)
	}

	// The manifest stream carries the same trace, correlated by ID.
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m telemetry.Manifest
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("manifest line: %v", err)
		}
		if m.Kind == "request" && m.Job == st.ID {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no request manifest for the job")
	}
	if m.TraceID != st.TraceID || m.Tenant != "tracer" || m.Trace == nil {
		t.Errorf("manifest correlation = %+v", m)
	}
	if m.DurationNS != root.WallNS {
		t.Errorf("manifest duration %d != root wall %d", m.DurationNS, root.WallNS)
	}

	// A second job, served from the result cache at admission, opens a
	// trace of its own.
	again := await(t, ts, submit(t, ts, "tracer", tinySpecJSON(31, 1<<18, 1<<19)).ID)
	if again.TraceID == "" || again.TraceID == st.TraceID {
		t.Errorf("second job's trace_id = %q, first's %q: want a fresh ID", again.TraceID, st.TraceID)
	}

	_ = s // shutdown via cleanup
}

// TestCachedRequestTrace: a result served straight from the cache still
// gets a sealed trace — cache_lookup plus nothing else — and the status
// exposes it immediately.
func TestCachedRequestTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	_, ts := testServer(t, Config{Workers: 1})
	spec := tinySpecJSON(37, 1<<18)
	first := await(t, ts, submit(t, ts, "warm", spec).ID)
	if first.State != StateDone {
		t.Fatalf("warmup failed: %s", first.Error)
	}
	st := submit(t, ts, "warm", spec)
	if !st.Cached {
		t.Fatal("repeat not served from cache")
	}
	if st.Trace == nil || st.Trace.WallNS == 0 {
		t.Fatal("cached request must still carry a sealed trace")
	}
	if c := st.Trace.Children; len(c) != 1 || c[0].Name != phaseCacheLookup {
		t.Errorf("cache-served request's root children = %+v, want cache_lookup alone", c)
	}
}

// statusz reads s's GET /v1/statusz body.
func statusz(t *testing.T, s *Server) Statusz {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/statusz", nil))
	var stz Statusz
	if err := json.NewDecoder(rec.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	return stz
}

// TestStatuszQueueWaitPercentiles pins statusz's queue-wait rows:
// nearest-rank percentiles over the queue_wait spans of the retained
// terminal jobs, one row per configured tenant, "other" and "all".
func TestStatuszQueueWaitPercentiles(t *testing.T) {
	const retain = 128
	s := New(Config{TenantWeights: map[string]int{"a": 1}, RetainJobs: retain})
	seq := 0
	// add registers a job of tenant whose root holds one child span
	// named phase, lasting d; a terminal job is sealed and finished.
	add := func(tenant, phase string, d time.Duration, terminal bool) {
		seq++
		j := newJob(fmt.Sprintf("job-%06d", seq), tenant, nil, time.Now())
		j.trace = telemetry.StartSpan("request")
		j.trace.AddTimedChild(phase, 0, uint64(d))
		s.registerJob(j)
		if terminal {
			j.trace.End()
			j.finish(nil, false, time.Now())
		}
	}
	for i := 1; i <= 100; i++ {
		add("a", phaseQueueWait, time.Duration(i)*time.Millisecond, true)
	}
	for _, tenant := range []string{"x", "y", "z"} {
		add(tenant, phaseQueueWait, time.Millisecond, true)
	}
	add("a", phaseQueueWait, time.Hour, false)         // still queued
	add("a", phaseCacheLookup, time.Millisecond, true) // served at admission

	// "all" sorts four 1 ms waits ahead of 2..100 ms: ranks 52, 98 and
	// 102 of 103 are 49, 95 and 99 ms.
	want := map[string]Percentiles{
		"a":     {Count: 100, P50: 50_000, P95: 95_000, P99: 99_000},
		"other": {Count: 3, P50: 1_000, P95: 1_000, P99: 1_000},
		"all":   {Count: 103, P50: 49_000, P95: 95_000, P99: 99_000},
	}
	if got := statusz(t, s).QueueWait; !maps.Equal(got, want) {
		t.Errorf("queue_wait_micros = %+v, want %+v", got, want)
	}

	// RetainJobs more terminal jobs evict every older terminal one and
	// the oldest new one: the queued job keeps its slot.
	for i := 0; i < retain; i++ {
		add("b", phaseQueueWait, 7*time.Millisecond, true)
	}
	row := Percentiles{Count: retain - 1, P50: 7_000, P95: 7_000, P99: 7_000}
	want = map[string]Percentiles{"other": row, "all": row}
	if got := statusz(t, s).QueueWait; !maps.Equal(got, want) {
		t.Errorf("after eviction queue_wait_micros = %+v, want %+v", got, want)
	}
}

// sseFrames reads an SSE stream to EOF, returning (id, event) pairs.
func sseFrames(t *testing.T, resp *http.Response) (ids []uint64, names []string) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lastID uint64
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			lastID = n
		case strings.HasPrefix(line, "event: "):
			ids = append(ids, lastID)
			names = append(names, strings.TrimPrefix(line, "event: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return ids, names
}

// TestSSEResumeLastEventID is the reconnect satellite: a client that
// reconnects with Last-Event-ID receives exactly the frames after that
// id — no losses, no duplicates.
func TestSSEResumeLastEventID(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	_, ts := testServer(t, Config{Workers: 1})
	id := submit(t, ts, "resume", tinySpecJSON(41, 1<<18, 1<<19, 1<<20)).ID

	client := &http.Client{Timeout: 120 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	fullIDs, fullNames := sseFrames(t, resp)
	if len(fullIDs) < 3 {
		t.Fatalf("need a few frames to test resume, got %d", len(fullIDs))
	}
	// IDs must be the contiguous 1-based event-log positions.
	for i, got := range fullIDs {
		if got != uint64(i)+1 {
			t.Fatalf("frame %d has id %d, want %d (ids: %v)", i, got, i+1, fullIDs)
		}
	}

	// Reconnect as if the connection dropped mid-stream.
	cut := fullIDs[len(fullIDs)/2]
	req, err := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(cut, 10))
	resp2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumeIDs, resumeNames := sseFrames(t, resp2)

	wantIDs := fullIDs[cut:]
	if len(resumeIDs) != len(wantIDs) {
		t.Fatalf("resume returned %d frames %v, want %d %v", len(resumeIDs), resumeIDs, len(wantIDs), wantIDs)
	}
	for i := range wantIDs {
		if resumeIDs[i] != wantIDs[i] || resumeNames[i] != fullNames[int(cut)+i] {
			t.Fatalf("resume frame %d = (%d,%s), want (%d,%s)",
				i, resumeIDs[i], resumeNames[i], wantIDs[i], fullNames[int(cut)+i])
		}
	}
	if resumeNames[len(resumeNames)-1] != StateDone {
		t.Errorf("resume must still end with done, got %q", resumeNames[len(resumeNames)-1])
	}

	// A client that already saw everything gets an empty stream and EOF.
	req3, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+id+"/events", nil)
	req3.Header.Set("Last-Event-ID", strconv.FormatUint(fullIDs[len(fullIDs)-1], 10))
	resp3, err := client.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	caughtUp, _ := sseFrames(t, resp3)
	if len(caughtUp) != 0 {
		t.Errorf("caught-up resume replayed %v", caughtUp)
	}
}

// TestTraceWithheldWhileLive: a running job's status must not expose
// its (still-mutating) span tree.
func TestTraceWithheldWhileLive(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1})
	s.preRun = func(*job) { <-gate }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(gate)

	st := submit(t, ts, "live", tinySpecJSON(43, 1<<18))
	if st.Trace != nil || st.TraceID != "" {
		t.Error("queued job must not expose its live trace")
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var again JobStatus
	err = json.NewDecoder(resp.Body).Decode(&again)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if again.Trace != nil {
		t.Error("live job status must not expose its trace")
	}
}
