// Package telemetry is the observability substrate of the co-simulation
// toolkit: a lock-free counter/gauge registry the simulator's
// packages register into, span-style run tracing, machine-readable run
// manifests (JSONL), and an HTTP surface serving Prometheus text format
// and net/http/pprof. A registry is built by its owner (cosim, cosimd,
// bench) and handed to what it instruments; nothing looks one up.
//
// The paper's Dragonhead board is itself an observability instrument —
// a CB block samples cache counters every 500 µs and the measurement
// series is the contribution. This package applies the same idea to the
// simulator itself, so multi-minute sweeps stop running dark.
//
// Design rules:
//
//   - Disabled is free. Every handle type (*Counter, *Gauge, *Span,
//     *Sink) is nil-safe: a nil receiver is a no-op,
//     so instrumented code pays one predictable branch when telemetry
//     is off. A nil *Registry hands out nil handles.
//   - Enabled is lock-free on the write path: a counter is one atomic
//     word.
//   - Hot loops stay untouched. Instrumented packages push counter
//     deltas at natural batch boundaries (a DEX slice, a bus batch, a
//     CB sample, a request), never per memory reference, so no counter
//     is written often enough for its one cache line to be contended.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero of a nil
// pointer is a no-op handle.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a set-to-current-value metric (bytes resident, queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named-metric registry. Registration takes a mutex
// (construction-time only); metric writes are lock-free. A nil registry
// hands out nil (no-op) handles, which is the disabled fast path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	return handle(r, func(r *Registry) map[string]*Counter { return r.counters }, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return handle(r, func(r *Registry) map[string]*Gauge { return r.gauges }, name)
}

// handle returns the metric named name in the map of r that kind
// picks, creating it on first use. A nil registry returns nil.
func handle[T any](r *Registry, kind func(*Registry) map[string]*T, name string) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := kind(r)
	h, ok := m[name]
	if !ok {
		h = new(T)
		m[name] = h
	}
	return h
}

// Snapshot is a point-in-time reading of every registered metric.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Snapshot reads every metric. The reads are atomic but not taken
// under a global barrier, so a snapshot taken mid-run is
// approximately-now and never torn within one metric.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	return s
}

// sortedKeys returns the sorted metric names of one kind (deterministic
// rendering for /metrics and tests).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
