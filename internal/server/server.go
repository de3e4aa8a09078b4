// The HTTP service: routing, admission, the worker pool, and the
// process-wide shared state (tracestore + result cache) every job
// draws from.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"cmpmem/internal/core"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/tracestore"
)

// Defaults for Config zero values.
const (
	DefaultWorkers    = 2
	DefaultRetainJobs = 4096
	// DefaultRetryAfter is the Retry-After hint on 429 responses.
	DefaultRetryAfter = 2 * time.Second
)

// Config shapes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds how many sweeps execute concurrently.
	Workers int
	// QueueCap bounds the admission queue (jobs waiting past the pool).
	QueueCap int
	// TenantWeights maps tenant names to DRR weights (default 1 each).
	// Only these tenants get per-tenant metric series of their own;
	// every other tenant shares the "other" series.
	TenantWeights map[string]int
	// ResultCacheBytes budgets the content-addressed result cache.
	ResultCacheBytes uint64
	// TraceStoreBytes and TraceDir budget the shared tracestore
	// (0, "" = tracestore defaults: 1 GiB resident, no disk spill).
	TraceStoreBytes uint64
	TraceDir        string
	// RetainJobs bounds how many finished jobs stay queryable.
	RetainJobs int
	// Manifest, when non-nil, receives one JSONL record per completed
	// request (kind "request", span tree attached) in addition to the
	// sweep manifests core emits through the sink.
	Manifest *telemetry.ManifestWriter
}

// Server is the cosimd service: an http.Handler plus the worker pool
// behind it. Construct with New, launch workers with Start, mount
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	sink    *telemetry.Sink
	store   *tracestore.Store
	results *resultCache
	queue   *fairQueue
	man     *telemetry.ManifestWriter

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // ids in creation order, for retention
	seq   uint64

	wg       sync.WaitGroup
	shutdown chan struct{}
	stopOnce sync.Once

	// preRun, when set, runs in the worker goroutine after a job is
	// dequeued and before it executes. Tests use it to hold workers at
	// a barrier so queue occupancy is deterministic.
	preRun func(*job)

	mAccepted *telemetry.Counter // cosimd_jobs_accepted_total
	mDone     *telemetry.Counter // cosimd_jobs_done_total
	mFailed   *telemetry.Counter // cosimd_jobs_failed_total
	mPanics   *telemetry.Counter // cosimd_job_panics_total
	mCached   *telemetry.Counter // cosimd_jobs_cached_total
	mRejected *telemetry.Counter // cosimd_admission_rejected_total
	mRunning  *telemetry.Gauge   // cosimd_jobs_running
	mRequests *telemetry.Counter // cosimd_http_requests_total
}

// New builds a Server from cfg. No goroutines start until Start.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = DefaultRetainJobs
	}
	reg := telemetry.NewRegistry()
	store := tracestore.New(cfg.TraceStoreBytes, cfg.TraceDir)
	store.Instrument(reg)
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		sink:     telemetry.NewSink(reg, cfg.Manifest, nil),
		store:    store,
		results:  newResultCache(cfg.ResultCacheBytes, reg),
		queue:    newFairQueue(cfg.QueueCap, cfg.TenantWeights, reg),
		man:      cfg.Manifest,
		jobs:     make(map[string]*job),
		shutdown: make(chan struct{}),

		mAccepted: reg.Counter("cosimd_jobs_accepted_total"),
		mDone:     reg.Counter("cosimd_jobs_done_total"),
		mFailed:   reg.Counter("cosimd_jobs_failed_total"),
		mPanics:   reg.Counter("cosimd_job_panics_total"),
		mCached:   reg.Counter("cosimd_jobs_cached_total"),
		mRejected: reg.Counter("cosimd_admission_rejected_total"),
		mRunning:  reg.Gauge("cosimd_jobs_running"),
		mRequests: reg.Counter("cosimd_http_requests_total"),
	}
	return s
}

// Config returns the configuration the server runs with, defaults
// resolved.
func (s *Server) Config() Config { return s.cfg }

// Registry returns the server's metric registry, where the cosimd_*
// metrics live.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.runJob(j)
			}
		}()
	}
}

// Shutdown stops admission, fails still-queued jobs, and waits for
// in-flight sweeps to finish (or ctx to expire). Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		close(s.shutdown)
		for _, j := range s.queue.Close() {
			j.queueSpan.End()
			s.failJob(j, fmt.Errorf("server shutting down"))
		}
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	})
	return err
}

// Handler returns the routed HTTP handler, /metrics included.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/statusz", s.handleStatusz)
	mux.Handle("/metrics", telemetry.Handler(s.reg))
	return s.instrument(mux)
}

// instrument wraps the mux with the request counter.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		s.mRequests.Inc()
	})
}

// tenantFrom extracts and bounds the X-Tenant header.
func tenantFrom(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		t = "default"
	}
	if len(t) > maxTenantLen {
		return "", fmt.Errorf("X-Tenant longer than %d bytes", maxTenantLen)
	}
	return t, nil
}

// handleSubmit is POST /v1/sweeps: decode → admission → 201 or 429.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := spec.Hash()
	now := time.Now()
	j := newJob(s.nextID(hash), tenant, spec, now)

	// Open the request trace on the job, which carries it past this
	// handler's lifetime (the HTTP exchange ends at the 201; the trace
	// ends at the terminal event).
	j.trace, j.traceID = telemetry.StartSpan("request"), newTraceID()
	annotateRequestSpan(j.trace, j)

	// A cached result completes the job at admission: no queue slot, no
	// worker, one map lookup.
	if body, ok := s.lookupResult(j, hash); ok {
		s.registerJob(j)
		j.emit(Event{Name: StateQueued, Data: eventData{Job: j.id, State: StateQueued}})
		j.markStarted(now)
		s.completeJob(j, body, true)
		s.mAccepted.Inc()
		s.respondAccepted(w, j)
		return
	}

	s.registerJob(j)
	j.emit(Event{Name: StateQueued, Data: eventData{Job: j.id, State: StateQueued}})
	j.queueSpan = j.trace.StartChild(phaseQueueWait)
	if err := s.queue.Push(j); err != nil {
		s.dropJob(j.id)
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(DefaultRetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	s.mAccepted.Inc()
	s.respondAccepted(w, j)
}

// lookupResult probes the result cache for j's spec hash under a
// cache_lookup span of j's trace.
func (s *Server) lookupResult(j *job, hash string) ([]byte, bool) {
	sp := j.trace.StartChild(phaseCacheLookup)
	body, ok := s.results.Get(hash)
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	return body, ok
}

// respondAccepted writes the 201 envelope.
func (s *Server) respondAccepted(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/sweeps/"+j.id)
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(j.status())
}

// handleStatus is GET /v1/sweeps/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

// handleEvents is GET /v1/sweeps/{id}/events: the SSE stream. The full
// history replays on attach, live events follow, and the stream closes
// after the terminal done/failed event. A reconnecting client that
// sends Last-Event-ID resumes exactly after the last frame it saw:
// event IDs are the 1-based positions in the job's append-only log, and
// subscribe hands back the history and the live registration under one
// lock, so the resumed stream neither drops nor duplicates events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			lastID = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	history, live, cancel := j.subscribe()
	defer cancel()
	for _, ev := range history {
		if ev.ID <= lastID {
			continue
		}
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-live:
			if !open {
				return // job was terminal at subscribe; history had the final event
			}
			if ev.ID <= lastID {
				continue // defensive: live IDs always exceed history's
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
			if ev.Name == StateDone || ev.Name == StateFailed {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			return
		}
	}
}

// writeSSE renders one frame in text/event-stream format, id field
// included so clients can resume via Last-Event-ID.
func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Name, data)
	return err
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handleVersion is GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"git_rev": telemetry.GitRev()})
}

// Statusz is the GET /v1/statusz body: a snapshot of the jobs, the
// queue and the shared state every job draws from. Its queue-wait
// percentiles cover the terminal jobs the server retains (at most
// RetainJobs, 4,096 by default), not every job since start.
type Statusz struct {
	Jobs struct {
		Accepted uint64 `json:"accepted"`
		Done     uint64 `json:"done"`
		Failed   uint64 `json:"failed"`
		Cached   uint64 `json:"cached"`
		Rejected uint64 `json:"rejected"`
		Running  int64  `json:"running"`
	} `json:"jobs"`
	QueueDepth int            `json:"queue_depth"`
	Tenants    map[string]int `json:"tenant_queue_depths,omitempty"`
	// QueueWait holds queue-wait percentiles per configured tenant, for
	// "other" and for "all": nearest-rank over the queue_wait spans of
	// the retained terminal jobs.
	QueueWait   map[string]Percentiles `json:"queue_wait_micros,omitempty"`
	TraceStore  tracestore.Stats       `json:"trace_store"`
	ResultCache ResultCacheStats       `json:"result_cache"`
}

// handleStatusz is GET /v1/statusz.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var st Statusz
	st.Jobs.Accepted = s.mAccepted.Value()
	st.Jobs.Done = s.mDone.Value()
	st.Jobs.Failed = s.mFailed.Value()
	st.Jobs.Cached = s.mCached.Value()
	st.Jobs.Rejected = s.mRejected.Value()
	st.Jobs.Running = s.mRunning.Value()
	st.QueueDepth = s.queue.Depth()
	st.Tenants = s.queue.TenantDepths()
	st.QueueWait = s.queueWaitPercentiles()
	st.TraceStore = s.store.Stats()
	st.ResultCache = s.results.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// nextID mints a job id: a monotonic sequence plus the spec hash
// prefix, so ids are unique and self-describing.
func (s *Server) nextID(hash string) string {
	s.mu.Lock()
	s.seq++
	n := s.seq
	s.mu.Unlock()
	return fmt.Sprintf("job-%06d-%s", n, hash[:8])
}

// registerJob records j and applies the retention bound: the oldest
// finished jobs past RetainJobs are dropped (running and queued jobs
// are never evicted).
func (s *Server) registerJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= s.cfg.RetainJobs {
		return
	}
	keep := s.order[:0]
	evictable := len(s.order) - s.cfg.RetainJobs
	for _, id := range s.order {
		old := s.jobs[id]
		if evictable > 0 && old != nil && old.isTerminal() {
			delete(s.jobs, id)
			evictable--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// dropJob removes a job that was never admitted.
func (s *Server) dropJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	if n := len(s.order); n > 0 && s.order[n-1] == id {
		s.order = s.order[:n-1]
	}
}

// lookup finds a job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// isTerminal reports whether the job has emitted its final event.
func (j *job) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.isTerminalLocked()
}

// runJob executes one dequeued job on a worker: result-cache check,
// then ExecuteSpec against the shared tracestore with progress mapped
// onto job states and per-config SSE events. It is the fault boundary:
// a panic below (an emulator's fail-loud check, say) fails this job
// alone, its stack in the error and on the trace.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			err := fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
			j.trace.SetAttr("panic", err.Error())
			s.failJob(j, err)
		}
	}()
	j.markStarted(time.Now())
	j.queueSpan.End()
	if s.preRun != nil {
		s.preRun(j)
	}
	hash := j.spec.Hash()
	// The result may have landed while this job sat in the queue
	// (another tenant ran the same spec first).
	if body, ok := s.lookupResult(j, hash); ok {
		s.completeJob(j, body, true)
		return
	}
	s.mRunning.Add(1)
	defer s.mRunning.Add(-1)
	res, err := ExecuteSpec(j.spec,
		core.WithParentSpan(j.trace),
		core.WithTraceReuse(s.store),
		core.WithTelemetry(s.sink),
		core.WithProgress(func(pr core.Progress) {
			switch pr.Phase {
			case core.PhaseCapture:
				j.setState(StateCapturing)
			case core.PhaseSample:
				j.setState(StateSampling)
			case core.PhaseReplay:
				j.setState(StateReplaying)
			case core.PhaseExecute:
				j.setState(StateRunning)
			case core.PhaseConfig:
				j.configDone(pr.Config, pr.Done, pr.Total)
			}
		}),
	)
	if err != nil {
		s.failJob(j, err)
		return
	}
	body, err := json.Marshal(res)
	if err != nil {
		s.failJob(j, fmt.Errorf("marshal result: %w", err))
		return
	}
	s.results.Put(hash, body)
	s.completeJob(j, body, false)
}

// completeJob seals j's trace, emits its request manifest and finishes
// it with body, counting it done (and cached when body came from the
// result cache). The trace is sealed before the terminal event so GET
// /v1/sweeps/{id} and /v1/statusz only ever read sealed trees.
func (s *Server) completeJob(j *job, body []byte, cached bool) {
	j.trace.End()
	s.emitRequestManifest(j, nil)
	j.finish(body, cached, time.Now())
	if cached {
		s.mCached.Inc()
	}
	s.mDone.Inc()
}

// failJob seals j's trace and fails it with err.
func (s *Server) failJob(j *job, err error) {
	j.trace.End()
	s.emitRequestManifest(j, err)
	j.fail(err, time.Now())
	s.mFailed.Inc()
}
