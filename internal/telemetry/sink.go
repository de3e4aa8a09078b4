// Sink bundles the three output channels of an instrumented session —
// the metric registry, the manifest stream, and the live progress line
// each manifest prints — behind one nil-safe handle that the experiment
// runners thread through their option set.

package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Sink is the per-session telemetry handle. Any field may be absent; a
// nil *Sink disables everything at the cost of a nil check.
type Sink struct {
	reg  *Registry
	man  *ManifestWriter
	prog io.Writer

	mu          sync.Mutex
	done, total int // progress lines printed, and expected
}

// NewSink assembles a sink. Any argument may be nil; a nil prog prints
// no progress lines.
func NewSink(reg *Registry, man *ManifestWriter, prog io.Writer) *Sink {
	return &Sink{reg: reg, man: man, prog: prog}
}

// Registry returns the metric registry (nil when absent or s is nil).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// StartSpan opens a root span, or returns nil when s is nil (nil spans
// propagate no-ops through the whole tree).
func (s *Sink) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	return StartSpan(name)
}

// Emit stamps the manifest with the registry snapshot, appends it to
// the manifest stream (when there is one), and prints its progress
// line.
func (s *Sink) Emit(m *Manifest) error {
	if s == nil {
		return nil
	}
	var err error
	if s.man != nil {
		if m.Counters == nil && s.reg != nil {
			snap := s.reg.Snapshot()
			m.Counters = &snap
		}
		err = s.man.Emit(m)
	}
	s.progress(m)
	return err
}

// Expect adds n manifests to the progress denominator (exhibit runners
// declare their run count up front; unknown totals render as "[k]").
func (s *Sink) Expect(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.total += n
	s.mu.Unlock()
}

// progress prints m as "[k/n] <workload> llcs=… hiers=… X Mrefs/s
// miss=…%": the manifest's bus-event throughput and the miss ratio
// over all its LLC records.
func (s *Sink) progress(m *Manifest) {
	if s.prog == nil {
		return
	}
	var acc, miss, events uint64
	for _, l := range m.LLCs {
		acc += l.Accesses
		miss += l.Misses
	}
	missPct := 0.0
	if acc > 0 {
		missPct = 100 * float64(miss) / float64(acc)
	}
	if m.Summary != nil {
		events = m.Summary.BusEvents
	}
	mrefs := float64(events) * 1e3 / float64(max(m.DurationNS, 1))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	k := strconv.Itoa(s.done)
	if s.total > 0 {
		k += "/" + strconv.Itoa(s.total)
	}
	fmt.Fprintf(s.prog, "[%s] %s llcs=%d hiers=%d %.1f Mrefs/s miss=%.2f%%\n",
		k, m.Workload, len(m.LLCs), len(m.Hiers), mrefs, missPct)
}
