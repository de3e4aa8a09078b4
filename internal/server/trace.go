// Request tracing: every accepted sweep's job holds a root span
// ("request") and a trace ID from the HTTP edge to its terminal event.
// The root gets one child per serving phase — queue_wait (admission to
// dequeue), cache_lookup (result-cache probes), and the execution tree
// that core hangs under it via WithParentSpan (plansweep/store/capture/
// replay/collect, plus concurrent shard spans) — so the phase durations
// reconcile against the request's measured wall latency.
//
// The sealed tree is the one latency record: /v1/statusz reads its
// queue-wait percentiles from the queue_wait spans of the jobs the
// server retains.

package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"slices"

	"cmpmem/internal/telemetry"
)

// Phase names of the serving path (the execution-side phases — capture,
// replay, collect — come from core's span vocabulary).
const (
	phaseQueueWait   = "queue_wait"
	phaseCacheLookup = "cache_lookup"
)

// newTraceID returns a 16-hex-digit random trace identifier.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; degrade to a fixed
		// sentinel rather than plumbing an error through every caller.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Percentiles is a p50/p95/p99 reading (microseconds) of one queue-wait
// row: nearest-rank percentiles over whole-µs waits, exact.
type Percentiles struct {
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50_micros"`
	P95   uint64 `json:"p95_micros"`
	P99   uint64 `json:"p99_micros"`
}

// queueWaitPercentiles returns the queue-wait percentile table for
// /v1/statusz: one row per configured tenant, otherTenant and the "all"
// aggregate, each present once it has a wait. The waits are the sealed
// queue_wait spans of the retained terminal jobs; a running job's root
// still gains children, and a job served at admission has no wait.
func (s *Server) queueWaitPercentiles() map[string]Percentiles {
	waits := make(map[string][]uint64)
	s.mu.Lock()
	for _, j := range s.jobs {
		if !j.isTerminal() {
			continue
		}
		for _, c := range j.trace.Children {
			if c.Name != phaseQueueWait {
				continue
			}
			us := c.WallNS / 1000
			key := otherTenant
			if _, ok := s.cfg.TenantWeights[j.tenant]; ok {
				key = j.tenant
			}
			waits[key] = append(waits[key], us)
			waits["all"] = append(waits["all"], us)
		}
	}
	s.mu.Unlock()
	out := make(map[string]Percentiles, len(waits))
	for key, w := range waits {
		slices.Sort(w)
		out[key] = Percentiles{
			Count: uint64(len(w)),
			P50:   nearestRank(w, 50),
			P95:   nearestRank(w, 95),
			P99:   nearestRank(w, 99),
		}
	}
	return out
}

// nearestRank returns the pct-th percentile of a sorted, non-empty
// slice: its element at rank ⌈pct·n/100⌉.
func nearestRank(sorted []uint64, pct int) uint64 {
	return sorted[(pct*len(sorted)+99)/100-1]
}

// annotateRequestSpan stamps the request root span with its identity
// attributes.
func annotateRequestSpan(root *telemetry.Span, j *job) {
	root.SetAttr("job", j.id)
	root.SetAttr("tenant", j.tenant)
	root.SetAttr("spec", j.spec.Hash())
	root.SetAttr("workload", j.spec.Workload)
}

// emitRequestManifest appends the request's span tree to the manifest
// stream (when cosimd was started with one). Called once the trace is
// sealed and before the terminal finish/fail event, so a client that
// has observed a job's completion can rely on its manifest line being
// on disk.
func (s *Server) emitRequestManifest(j *job, jobErr error) {
	if s.man == nil || j.trace == nil {
		return
	}
	m := &telemetry.Manifest{
		Kind:       "request",
		Workload:   j.spec.Workload,
		Seed:       j.spec.Seed,
		Scale:      j.spec.Scale,
		Tenant:     j.tenant,
		Job:        j.id,
		TraceID:    j.traceID,
		DurationNS: j.trace.WallNS,
		Trace:      j.trace,
	}
	if jobErr != nil {
		m.Kind = "request_failed"
	}
	if err := s.man.Emit(m); err != nil {
		fmt.Fprintf(os.Stderr, "cosimd: manifest emit: %v\n", err)
	}
}
