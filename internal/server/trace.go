// Request tracing: every accepted sweep's job holds a root span
// ("request") and a trace ID from the HTTP edge to its terminal event.
// The root gets one child per serving phase — queue_wait (admission to
// dequeue), cache_lookup (result-cache probes), and the execution tree
// that core hangs under it via WithParentSpan (plansweep/store/capture/
// replay/collect, plus concurrent shard spans) — so the phase durations
// reconcile against the request's measured wall latency.
//
// The same phases feed cosimd_phase_*_micros histograms, both aggregate
// and per-tenant (the registry's name-suffix idiom, as with
// cosimd_tenant_queue_depth_*; tenants without a configured weight
// share one "other" series), which /v1/statusz folds into queue-wait
// percentiles.

package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"time"

	"cmpmem/internal/telemetry"
)

// Phase names of the serving path (the execution-side phases — capture,
// replay, collect — come from core's span vocabulary).
const (
	phaseQueueWait   = "queue_wait"
	phaseCapture     = "capture"
	phaseAnalytic    = "analytic"
	phaseEmulate     = "emulate"
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

// phaseRecorder observes per-phase latencies into aggregate and
// per-tenant histograms: one series per tenant with a configured
// weight, and the shared otherTenant series for the rest.
type phaseRecorder struct {
	reg     *telemetry.Registry
	weights map[string]int
}

// observe records one phase duration for a tenant.
func (p *phaseRecorder) observe(phase, tenant string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d.Microseconds())
	p.reg.Histogram("cosimd_phase_" + phase + "_micros").Observe(us)
	p.reg.Histogram("cosimd_phase_" + phase + "_micros_tenant_" + tenantSeries(p.weights, tenant)).Observe(us)
}

// Percentiles is a p50/p95/p99 reading (microseconds) of one phase
// histogram; estimates carry the pow2-bucket factor-of-two resolution.
type Percentiles struct {
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50_micros"`
	P95   uint64 `json:"p95_micros"`
	P99   uint64 `json:"p99_micros"`
}

// queueWaitPercentiles returns the queue-wait percentile table for
// /v1/statusz: one row per configured tenant, otherTenant and the "all"
// aggregate, each present once it has an observation.
func (p *phaseRecorder) queueWaitPercentiles() map[string]Percentiles {
	out := make(map[string]Percentiles)
	add := func(key, histName string) {
		snap := p.reg.Histogram(histName).Snapshot()
		if snap.Count == 0 {
			return
		}
		out[key] = Percentiles{
			Count: snap.Count,
			P50:   snap.Quantile(0.50),
			P95:   snap.Quantile(0.95),
			P99:   snap.Quantile(0.99),
		}
	}
	add("all", "cosimd_phase_"+phaseQueueWait+"_micros")
	add(otherTenant, "cosimd_phase_"+phaseQueueWait+"_micros_tenant_"+otherTenant)
	for t := range p.weights {
		add(t, "cosimd_phase_"+phaseQueueWait+"_micros_tenant_"+sanitizeTenant(t))
	}
	return out
}

// annotateRequestSpan stamps the request root span with its identity
// attributes.
func annotateRequestSpan(root *telemetry.Span, j *job) {
	root.SetAttr("job", j.id)
	root.SetAttr("tenant", j.tenant)
	root.SetAttr("spec", j.spec.Hash())
	root.SetAttr("workload", j.spec.Workload)
}

// sweepSpanOf returns the execution child of the request root (the
// span core opened under WithParentSpan: plansweep/* or
// sampledsweep/*), or nil on cache-served requests.
func sweepSpanOf(root *telemetry.Span) *telemetry.Span {
	if root == nil {
		return nil
	}
	for _, c := range root.Children {
		switch c.Name {
		case phaseQueueWait, phaseCacheLookup:
			continue
		}
		return c
	}
	return nil
}

// recordRequestPhases folds a finished request's span tree into the
// phase histograms: queue_wait and cache_lookup from their serving
// spans, capture from the store's capture child, and the compute pass
// into the analytic or emulate histogram depending on whether the plan
// had emulation legs (both legs ride one bus pass, so their wall time
// is attributed to the heavier engine rather than split arbitrarily).
func (s *Server) recordRequestPhases(j *job, root *telemetry.Span) {
	if root == nil {
		return
	}
	for _, c := range root.Children {
		switch c.Name {
		case phaseQueueWait:
			s.phases.observe(phaseQueueWait, j.tenant, time.Duration(c.WallNS))
		case phaseCacheLookup:
			s.phases.observe(phaseCacheLookup, j.tenant, time.Duration(c.WallNS))
		}
	}
	sweep := sweepSpanOf(root)
	if sweep == nil {
		return
	}
	if cap := sweep.Find(phaseCapture); cap != nil {
		s.phases.observe(phaseCapture, j.tenant, time.Duration(cap.WallNS))
	}
	phase := phaseAnalytic
	if n, err := strconv.Atoi(sweep.Attrs["emulated_configs"]); err == nil && n > 0 {
		phase = phaseEmulate
	} else if sweep.Attrs["emulated_configs"] == "" && sweep.Attrs["analytic_configs"] == "" {
		// sampledsweep trees (no planner attrs) replay into caches.
		phase = phaseEmulate
	}
	s.phases.observe(phase, j.tenant, time.Duration(sweep.WallNS))
}

// emitRequestManifest appends the request's span tree to the manifest
// stream (when cosimd was started with one). Called after sealTrace and
// before the terminal finish/fail event, so a client that has observed
// a job's completion can rely on its manifest line being on disk.
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
