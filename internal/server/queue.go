// Admission control and per-tenant weighted fair queuing.
//
// The queue is the server's only unbounded-pressure point, so it is
// bounded: past the global cap, Push fails and the HTTP layer answers
// 429 with Retry-After — load sheds at the door instead of growing an
// invisible backlog. Under the cap, jobs wait in per-tenant FIFOs and
// workers pop by deficit round robin: each scheduling round grants
// every backlogged tenant credits equal to its weight, so over time a
// weight-2 tenant receives twice the service of a weight-1 tenant and
// no tenant starves regardless of how fast another one submits.

package server

import (
	"errors"
	"fmt"
	"sync"

	"cmpmem/internal/telemetry"
)

// ErrQueueFull is returned by Push when admission control rejects a
// job (the HTTP layer maps it to 429 + Retry-After).
var ErrQueueFull = errors.New("server: sweep queue is full")

// errQueueClosed is returned by Push after Close.
var errQueueClosed = errors.New("server: sweep queue is closed")

// DefaultQueueCap is the default global queue bound.
const DefaultQueueCap = 256

// tenantQueue is one tenant's FIFO plus its DRR scheduling state. It
// exists only while the tenant has queued jobs.
type tenantQueue struct {
	jobs    []*job
	weight  int
	credits int
	gauge   *telemetry.Gauge // cosimd_tenant_queue_depth_<series>, shared
}

// fairQueue is the bounded, weighted-fair job queue.
type fairQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cap     int
	size    int
	closed  bool
	weights map[string]int          // configured tenant weights (default 1)
	tenants map[string]*tenantQueue // tenants with queued jobs
	active  []string                // tenants with queued work, in rotation order
	rr      int                     // rotation cursor into active
	reg     *telemetry.Registry
	depth   *telemetry.Gauge // cosimd_queue_depth
}

// newFairQueue builds a queue with the given global cap and tenant
// weights (nil = every tenant weight 1).
func newFairQueue(cap int, weights map[string]int, reg *telemetry.Registry) *fairQueue {
	q := &fairQueue{
		cap:     cap,
		weights: weights,
		tenants: make(map[string]*tenantQueue),
		reg:     reg,
		depth:   reg.Gauge("cosimd_queue_depth"),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tenantWeight resolves a tenant's configured weight (>= 1).
func (q *fairQueue) tenantWeight(tenant string) int {
	if w, ok := q.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// otherTenant is the metric series shared by every tenant without a
// configured weight: X-Tenant is chosen by the client, so a series per
// distinct value would grow /metrics without bound.
const otherTenant = "other"

// tenantSeries maps a tenant to its metric-name suffix: its own name
// if it has a configured weight, otherTenant if not.
func tenantSeries(weights map[string]int, tenant string) string {
	if _, ok := weights[tenant]; ok {
		return sanitizeTenant(tenant)
	}
	return otherTenant
}

// sanitizeTenant maps a tenant name into the metric-name charset.
func sanitizeTenant(t string) string {
	b := []byte(t)
	for i, c := range b {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

// Push enqueues j for its tenant, or fails with ErrQueueFull when the
// global cap is reached (admission control never blocks the caller).
func (q *fairQueue) Push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	if q.size >= q.cap {
		return ErrQueueFull
	}
	tq, ok := q.tenants[j.tenant]
	if !ok {
		tq = &tenantQueue{
			weight: q.tenantWeight(j.tenant),
			gauge:  q.reg.Gauge("cosimd_tenant_queue_depth_" + tenantSeries(q.weights, j.tenant)),
		}
		q.tenants[j.tenant] = tq
		q.active = append(q.active, j.tenant)
	}
	tq.jobs = append(tq.jobs, j)
	q.size++
	tq.gauge.Add(1)
	q.depth.Set(int64(q.size))
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available and returns the next one under
// deficit round robin, or (nil, false) once the queue is closed and
// drained. Single- and multi-consumer safe.
func (q *fairQueue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.size == 0 {
			if q.closed {
				return nil, false
			}
			q.cond.Wait()
			continue
		}
		if j := q.popLocked(); j != nil {
			return j, true
		}
		// Every backlogged tenant has exhausted its credits: start a new
		// scheduling round by replenishing credits to the weights.
		for _, t := range q.active {
			tq := q.tenants[t]
			tq.credits = tq.weight
		}
	}
}

// popLocked serves one job from the first tenant (in rotation order
// from the cursor) that has both work and credits, or nil when the
// round is exhausted.
func (q *fairQueue) popLocked() *job {
	n := len(q.active)
	for i := 0; i < n; i++ {
		idx := (q.rr + i) % n
		t := q.active[idx]
		tq := q.tenants[t]
		if tq.credits <= 0 {
			continue
		}
		tq.credits--
		j := tq.jobs[0]
		tq.jobs = tq.jobs[1:]
		q.size--
		tq.gauge.Add(-1)
		q.depth.Set(int64(q.size))
		if len(tq.jobs) == 0 {
			// Tenant drained: its record goes (it re-enters on its next
			// Push with fresh position and zero credits, so a bursty
			// tenant cannot bank service from an idle period).
			delete(q.tenants, t)
			q.active = append(q.active[:idx:idx], q.active[idx+1:]...)
			if n--; n > 0 {
				q.rr = idx % n
			} else {
				q.rr = 0
			}
		} else {
			// Stay on this tenant while it has credits, then move on.
			if tq.credits == 0 {
				q.rr = (idx + 1) % n
			} else {
				q.rr = idx
			}
		}
		return j
	}
	return nil
}

// Depth returns the current queued-job count.
func (q *fairQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// TenantDepths snapshots the per-tenant queue depths.
func (q *fairQueue) TenantDepths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.tenants))
	for t, tq := range q.tenants {
		out[t] = len(tq.jobs)
	}
	return out
}

// Close rejects future pushes, wakes every blocked Pop, and returns
// the jobs still queued so the caller can fail them loudly.
func (q *fairQueue) Close() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var drained []*job
	for _, t := range q.active {
		tq := q.tenants[t]
		drained = append(drained, tq.jobs...)
		tq.gauge.Add(-int64(len(tq.jobs)))
		delete(q.tenants, t)
	}
	q.active = nil
	q.size = 0
	q.depth.Set(0)
	q.cond.Broadcast()
	return drained
}

// String renders the queue state for diagnostics.
func (q *fairQueue) String() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return fmt.Sprintf("fairQueue{size=%d cap=%d tenants=%d}", q.size, q.cap, len(q.active))
}
