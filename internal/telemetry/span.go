// Span-style run tracing: every experiment run gets a tree of timed
// phases (capture → fan-out → snoop → collect) that lands in the run
// manifest, so "where did those four minutes go" has a recorded answer.

package telemetry

import (
	"sync"
	"time"
)

// Span is one timed phase of a run. Spans form a tree; children may be
// started from concurrent goroutines (the parallel exhibit runners).
// All methods are nil-safe: a nil span (telemetry disabled) produces
// nil children and free no-op Ends.
type Span struct {
	Name string `json:"name"`
	// StartUnixNS anchors the span on the wall clock (Unix nanos), so a
	// rendered waterfall can show when each phase began relative to the
	// root, not just how long it ran.
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
	// WallNS is the wall-clock duration; ProcessCPUNS is the whole
	// process's CPU time while the span was open (user+system, all
	// goroutines): concurrent spans share it, so never sum them.
	WallNS       uint64            `json:"wall_ns"`
	ProcessCPUNS uint64            `json:"process_cpu_ns,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Children     []*Span           `json:"children,omitempty"`

	start    time.Time
	cpuStart uint64
	mu       sync.Mutex
}

// StartSpan opens a root span.
func StartSpan(name string) *Span {
	now := time.Now()
	return &Span{Name: name, StartUnixNS: now.UnixNano(), start: now, cpuStart: processCPUNS()}
}

// StartChild opens a child span under s. Safe to call from multiple
// goroutines on the same parent.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End seals the span's timings. End is idempotent — the first call
// wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.WallNS == 0 {
		s.WallNS = uint64(time.Since(s.start))
		if s.WallNS == 0 {
			s.WallNS = 1 // a measured span is never exactly free
		}
		if cpu := processCPUNS(); cpu > s.cpuStart {
			s.ProcessCPUNS = cpu - s.cpuStart
		}
	}
}

// SetAttr records one key/value annotation on the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// AttrConcurrent marks spans that overlap their siblings in wall time
// (shard workers, pool goroutines). Reconciliation sums skip them:
// their duration is already covered by the enclosing serial phase.
const AttrConcurrent = "concurrent"

// AddTimedChild attaches an already-measured child span — a phase whose
// duration was accumulated out-of-band (per-shard busy time summed in
// the worker loop) and only becomes attachable after the fact. The
// child arrives sealed; startUnixNS may be zero when unknown.
func (s *Span) AddTimedChild(name string, startUnixNS int64, wallNS uint64) *Span {
	if s == nil {
		return nil
	}
	if wallNS == 0 {
		wallNS = 1
	}
	c := &Span{Name: name, StartUnixNS: startUnixNS, WallNS: wallNS}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// Find returns the first span named name in a depth-first walk of the
// tree rooted at s (including s itself), or nil. Intended for sealed
// or decoded trees; it does not lock.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// SerialChildSum sums the wall time of s's direct children, skipping
// spans marked AttrConcurrent — the quantity that should reconcile
// against s.WallNS when the children partition the parent's timeline.
func (s *Span) SerialChildSum() uint64 {
	if s == nil {
		return 0
	}
	var sum uint64
	for _, c := range s.Children {
		if c == nil || c.Attrs[AttrConcurrent] == "true" {
			continue
		}
		sum += c.WallNS
	}
	return sum
}
