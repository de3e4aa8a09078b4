// Job records and their event streams.
//
// A job is one accepted sweep: a spec, a tenant, a state machine
// (queued → capturing/replaying/running → done/failed), and an
// append-only event log. SSE subscribers get the full history replayed
// on attach and live events after, so a client that connects late (or
// reconnects) sees the same stream as one that connected at submit
// time; the final "done"/"failed" event closes every stream.

package server

import (
	"encoding/json"
	"sync"
	"time"

	"cmpmem/internal/telemetry"
)

// Job states, in submission order. Capturing and replaying surface the
// core progress phases: a capture answers its exact job, so "capturing"
// goes straight to the config events and "done"; a job that finds the
// stream stored reports "replaying", a store-less one "running".
const (
	StateQueued    = "queued"
	StateCapturing = "capturing"
	// StateSampling is the fast tier's fingerprint + cluster pass; the
	// representative replay that follows reports StateReplaying.
	StateSampling  = "sampling"
	StateReplaying = "replaying"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
)

// Event is one SSE frame: the event name plus a JSON-marshaled payload.
type Event struct {
	// ID is the 1-based position in the job's event log, rendered as
	// the SSE id field so clients can resume with Last-Event-ID.
	ID uint64 `json:"id"`
	// Name is the SSE event type: a state name or "config".
	Name string `json:"event"`
	// Data is the payload rendered into the SSE data field.
	Data eventData `json:"data"`
}

// eventData is the payload schema shared by all events.
type eventData struct {
	Job    string `json:"job"`
	State  string `json:"state"`
	Config string `json:"config,omitempty"` // per-config completion events
	Done   int    `json:"done,omitempty"`   // configs completed so far
	Total  int    `json:"total,omitempty"`  // configs in the sweep
	Error  string `json:"error,omitempty"`  // failed only
}

// JobStatus is the JSON body of GET /v1/sweeps/{id}.
type JobStatus struct {
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant"`
	State    string          `json:"state"`
	SpecHash string          `json:"spec_hash"`
	Cached   bool            `json:"cached,omitempty"` // answered from the result cache
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"` // marshaled SweepResult when done
	// TraceID and Trace expose the request's span tree once the job is
	// terminal (live trees mutate concurrently and are withheld).
	TraceID string          `json:"trace_id,omitempty"`
	Trace   *telemetry.Span `json:"trace,omitempty"`
}

// job is the server-side record behind one sweep id.
type job struct {
	id     string
	tenant string
	spec   *SweepSpec

	mu       sync.Mutex
	state    string
	cached   bool
	created  time.Time
	started  time.Time
	finished time.Time
	err      string
	result   []byte // marshaled SweepResult (shared with the result cache)

	events []Event // full history, replayed to late subscribers
	subs   map[chan Event]struct{}
	done   chan struct{} // closed on the terminal event

	// trace is the request's root span, opened at admission, and
	// traceID its 16-hex-digit identity; queueSpan covers
	// admission-to-dequeue. Span internals synchronize themselves; the
	// fields are written once before the job is visible to workers.
	trace     *telemetry.Span
	traceID   string
	queueSpan *telemetry.Span
}

func newJob(id, tenant string, spec *SweepSpec, now time.Time) *job {
	return &job{
		id:      id,
		tenant:  tenant,
		spec:    spec,
		state:   StateQueued,
		created: now,
		subs:    make(map[chan Event]struct{}),
		done:    make(chan struct{}),
	}
}

// emit appends ev to the history and fans it out to live subscribers.
// Subscriber channels are buffered; a subscriber that stops draining
// loses events rather than blocking the worker (SSE clients that care
// reconnect and get the history replay).
func (j *job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.isTerminalLocked() {
		return
	}
	ev.ID = uint64(len(j.events)) + 1
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.Name == StateDone || ev.Name == StateFailed {
		close(j.done)
	}
}

// isTerminalLocked reports whether the terminal event has been emitted.
func (j *job) isTerminalLocked() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// setState transitions the job and emits the matching event. Repeated
// transitions to the current state are suppressed so a 256-config
// replay does not emit 256 "replaying" frames.
func (j *job) setState(state string) {
	j.mu.Lock()
	if j.state == state || j.isTerminalLocked() {
		j.mu.Unlock()
		return
	}
	j.state = state
	data := eventData{Job: j.id, State: state}
	j.mu.Unlock()
	j.emit(Event{Name: state, Data: data})
}

// configDone emits a per-config completion event.
func (j *job) configDone(config string, done, total int) {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	j.emit(Event{Name: "config", Data: eventData{
		Job: j.id, State: state, Config: config, Done: done, Total: total,
	}})
}

// finish marks the job done with the marshaled result.
func (j *job) finish(result []byte, cached bool, now time.Time) {
	j.mu.Lock()
	j.state = StateDone
	j.result = result
	j.cached = cached
	j.finished = now
	data := eventData{Job: j.id, State: StateDone}
	j.mu.Unlock()
	j.emit(Event{Name: StateDone, Data: data})
}

// fail marks the job failed.
func (j *job) fail(err error, now time.Time) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = err.Error()
	j.finished = now
	data := eventData{Job: j.id, State: StateFailed, Error: j.err}
	j.mu.Unlock()
	j.emit(Event{Name: StateFailed, Data: data})
}

// markStarted records the dequeue time.
func (j *job) markStarted(now time.Time) {
	j.mu.Lock()
	j.started = now
	j.mu.Unlock()
}

// subscribe returns the event history so far plus a channel carrying
// subsequent events, and an unsubscribe func. If the job is already
// terminal the channel is returned closed.
func (j *job) subscribe() (history []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	ch := make(chan Event, 64)
	if j.isTerminalLocked() {
		close(ch)
		return history, ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// status snapshots the job for GET /v1/sweeps/{id}.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    j.state,
		SpecHash: j.spec.Hash(),
		Cached:   j.cached,
		Created:  j.created,
		Error:    j.err,
		Result:   json.RawMessage(j.result),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	// The span tree is exposed only after the terminal event: a live
	// tree is still being mutated by the worker, and a sealed one is
	// safe to share by value.
	if j.trace != nil && j.isTerminalLocked() {
		st.TraceID = j.traceID
		st.Trace = j.trace
	}
	return st
}
