package server

import (
	"bufio"
	"encoding/json"
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
// request's measured wall latency, and the same phases land in the
// cosimd_phase_* histograms, statusz percentiles, and the manifest
// stream.
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
	reg := s.Registry()

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
	if root.Find(phaseQueueWait) == nil {
		t.Error("no queue_wait span")
	}
	if root.Find(phaseCacheLookup) == nil {
		t.Error("no cache_lookup span")
	}
	sweep := sweepSpanOf(root)
	if sweep == nil || !strings.HasPrefix(sweep.Name, "plansweep/") {
		t.Fatalf("sweep span = %+v, want plansweep/*", sweep)
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

	// Phase histograms: aggregate and per-tenant queue_wait observed.
	if n := reg.Histogram("cosimd_phase_queue_wait_micros").Snapshot().Count; n == 0 {
		t.Error("queue_wait histogram empty")
	}
	if n := reg.Histogram("cosimd_phase_queue_wait_micros_tenant_tracer").Snapshot().Count; n == 0 {
		t.Error("per-tenant queue_wait histogram empty")
	}

	// statusz folds the same histograms into percentiles.
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var stz Statusz
	err = json.NewDecoder(resp.Body).Decode(&stz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stz.QueueWait["all"]; !ok {
		t.Errorf("statusz queue_wait missing aggregate: %v", stz.QueueWait)
	}
	if p, ok := stz.QueueWait["tracer"]; !ok || p.Count == 0 {
		t.Errorf("statusz queue_wait missing tenant: %v", stz.QueueWait)
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
	if st.Trace.Find(phaseCacheLookup) == nil {
		t.Error("cached request trace missing cache_lookup span")
	}
	if sweepSpanOf(st.Trace) != nil {
		t.Error("cache-served request must have no execution span")
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
