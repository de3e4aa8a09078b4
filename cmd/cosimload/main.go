// Command cosimload hammers a cosimd server with concurrent tenants
// over an overlapping spec mix and reports what the shared state bought:
// request latencies, completion latencies, and the dedupe ratio
// (completed sweeps per actual trace execution — the measure of the
// execute-once/replay-many promise holding across tenants).
//
// The mix is built so that many distinct experiments (different
// geometry grids) share few workload captures (same workload/seed/
// platform): every request is a distinct cache-keyed result, but the
// expensive trace executions collapse to one per seed.
//
// Flags:
//
//	-addr       server base URL (default http://127.0.0.1:8344)
//	-tenants n  concurrent tenants (default 8)
//	-requests n requests per tenant (default 8)
//	-workload   workload name for the mix (default FIMI)
//	-scale f    footprint scale (default 1/32 to keep smokes fast)
//	-seeds n    distinct dataset seeds in the mix (default 2)
//	-mix n      distinct grid variants per seed (default 4)
//	-timeout d  per-job completion timeout (default 120s)
//	-verify     recompute one served result locally and compare bytes
//	-out path   write the benchmark JSON here (default cosimload.json)
//
// A request rejected with 429 honors Retry-After and retries; a job
// that fails or times out counts as a failure and fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"cmpmem/internal/server"
	"cmpmem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosimload:", err)
		os.Exit(1)
	}
}

// bench is the cosimload.json schema.
type bench struct {
	GitRev     string  `json:"git_rev"`
	Tenants    int     `json:"tenants"`
	PerTenant  int     `json:"requests_per_tenant"`
	Requests   int     `json:"requests"`
	Completed  int     `json:"completed"`
	Cached     int     `json:"cached"`
	Failed     int     `json:"failed"`
	Retries429 int     `json:"retries_429"`
	Distinct   int     `json:"distinct_specs"`
	WallSec    float64 `json:"wall_seconds"`

	TraceExecutions  uint64  `json:"trace_executions"`
	SingleFlightHits uint64  `json:"singleflight_waits"`
	DedupeRatio      float64 `json:"dedupe_ratio"` // completed / trace executions
	ResultCacheHits  uint64  `json:"result_cache_hits"`

	SubmitMicros   percentiles `json:"submit_micros"`
	CompleteMillis percentiles `json:"complete_millis"`

	Verified      bool `json:"verified,omitempty"`
	VerifyMatched bool `json:"verify_matched,omitempty"`
}

type percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("cosimload", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8344", "cosimd base URL")
	tenants := fs.Int("tenants", 8, "concurrent tenants")
	requests := fs.Int("requests", 8, "requests per tenant")
	workload := fs.String("workload", "FIMI", "workload name for the spec mix")
	scale := fs.Float64("scale", 1.0/32, "footprint scale")
	seeds := fs.Int("seeds", 2, "distinct dataset seeds in the mix")
	mix := fs.Int("mix", 4, "distinct grid variants per seed")
	timeout := fs.Duration("timeout", 120*time.Second, "per-job completion timeout")
	verify := fs.Bool("verify", false, "recompute one served result locally and compare bytes")
	out := fs.String("out", "cosimload.json", "benchmark JSON output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := buildMix(*workload, *scale, *seeds, *mix)
	fmt.Fprintf(os.Stderr, "cosimload: %d tenants x %d requests over %d distinct specs at %s\n",
		*tenants, *requests, len(specs), *addr)

	var (
		mu         sync.Mutex
		submits    []time.Duration
		completes  []time.Duration
		completed  int
		cached     int
		failed     int
		retries429 int
		firstBody  []byte // one served result, for -verify
		firstSpec  *server.SweepSpec
		errs       []error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < *tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			tenant := fmt.Sprintf("tenant-%d", t)
			for i := 0; i < *requests; i++ {
				spec := specs[(t*(*requests)+i)%len(specs)]
				res, err := oneRequest(client, *addr, tenant, spec, *timeout)
				mu.Lock()
				retries429 += res.retries
				if err != nil {
					failed++
					errs = append(errs, fmt.Errorf("%s req %d: %w", tenant, i, err))
				} else {
					completed++
					if res.cached {
						cached++
					}
					submits = append(submits, res.submit)
					completes = append(completes, res.complete)
					if firstBody == nil && len(res.result) > 0 {
						firstBody = res.result
						firstSpec = spec
					}
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	wall := time.Since(start)

	st, err := fetchStatusz(*addr)
	if err != nil {
		return fmt.Errorf("statusz: %w", err)
	}
	b := bench{
		GitRev:           telemetry.GitRev(),
		Tenants:          *tenants,
		PerTenant:        *requests,
		Requests:         *tenants * *requests,
		Completed:        completed,
		Cached:           cached,
		Failed:           failed,
		Retries429:       retries429,
		Distinct:         len(specs),
		WallSec:          wall.Seconds(),
		TraceExecutions:  st.TraceStore.Misses,
		SingleFlightHits: st.TraceStore.Waits,
		ResultCacheHits:  st.ResultCache.Hits,
		SubmitMicros:     pctl(submits, time.Microsecond),
		CompleteMillis:   pctl(completes, time.Millisecond),
	}
	if b.TraceExecutions > 0 {
		b.DedupeRatio = float64(completed) / float64(b.TraceExecutions)
	}
	if *verify && firstBody != nil {
		b.Verified = true
		local, err := recompute(firstSpec)
		if err != nil {
			return fmt.Errorf("verify recompute: %w", err)
		}
		b.VerifyMatched = bytes.Equal(local, firstBody)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"cosimload: %d/%d completed (%d cached) in %.1fs, %d trace executions, dedupe %.1fx -> %s\n",
		completed, b.Requests, cached, b.WallSec, b.TraceExecutions, b.DedupeRatio, *out)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "cosimload: FAIL:", e)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed", failed, b.Requests)
	}
	if b.Verified && !b.VerifyMatched {
		return fmt.Errorf("served result does not bit-match local recompute")
	}
	return nil
}

// buildMix constructs seeds x mix distinct specs that all share one
// platform shape per seed, so trace captures collapse per seed while
// every spec is a distinct content-addressed result.
func buildMix(workload string, scale float64, seeds, mix int) []*server.SweepSpec {
	sizes := []uint64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	var specs []*server.SweepSpec
	for s := 0; s < seeds; s++ {
		for v := 0; v < mix; v++ {
			grid := []server.ConfigSpec{
				{SizeBytes: sizes[v%len(sizes)], LineSize: 64, Assoc: 8},
				{SizeBytes: sizes[(v+1)%len(sizes)], LineSize: 64, Assoc: 8},
			}
			spec := &server.SweepSpec{
				Workload: workload,
				Seed:     int64(s + 1),
				Scale:    scale,
				Platform: server.PlatformSpec{Threads: 8},
				Grids:    [][]server.ConfigSpec{grid},
			}
			spec.Normalize()
			specs = append(specs, spec)
		}
	}
	return specs
}

type reqResult struct {
	submit   time.Duration // POST round trip
	complete time.Duration // POST start to terminal state
	retries  int
	cached   bool
	result   []byte
}

// oneRequest submits a spec (retrying 429s per Retry-After) and polls
// the job to completion.
func oneRequest(client *http.Client, base, tenant string, spec *server.SweepSpec, timeout time.Duration) (reqResult, error) {
	var res reqResult
	body, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	start := time.Now()
	deadline := start.Add(timeout)
	var status server.JobStatus
	for {
		req, err := http.NewRequest("POST", base+"/v1/sweeps", bytes.NewReader(body))
		if err != nil {
			return res, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := client.Do(req)
		if err != nil {
			return res, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := 1 * time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				retry = time.Duration(ra) * time.Second
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			res.retries++
			if time.Now().Add(retry).After(deadline) {
				return res, fmt.Errorf("still admission-limited at deadline after %d retries", res.retries)
			}
			time.Sleep(retry)
			continue
		}
		err = decodeInto(resp, http.StatusCreated, &status)
		if err != nil {
			return res, err
		}
		break
	}
	res.submit = time.Since(start)

	for status.State != server.StateDone && status.State != server.StateFailed {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("job %s still %s at deadline", status.ID, status.State)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := client.Get(base + "/v1/sweeps/" + status.ID)
		if err != nil {
			return res, err
		}
		if err := decodeInto(resp, http.StatusOK, &status); err != nil {
			return res, err
		}
	}
	res.complete = time.Since(start)
	res.cached = status.Cached
	res.result = status.Result
	if status.State == server.StateFailed {
		return res, fmt.Errorf("job %s failed: %s", status.ID, status.Error)
	}
	return res, nil
}

// pctl summarizes durations in the given unit.
func pctl(ds []time.Duration, unit time.Duration) percentiles {
	if len(ds) == 0 {
		return percentiles{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(unit)
	}
	return percentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: float64(sorted[len(sorted)-1]) / float64(unit),
	}
}

// decodeInto checks the status code and decodes the JSON body.
func decodeInto(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchStatusz reads the server's shared-state snapshot.
func fetchStatusz(base string) (server.Statusz, error) {
	var st server.Statusz
	resp, err := http.Get(base + "/v1/statusz")
	if err != nil {
		return st, err
	}
	return st, decodeInto(resp, http.StatusOK, &st)
}

// recompute runs the spec locally through the same ExecuteSpec path the
// server uses and returns the marshaled result for byte comparison.
func recompute(spec *server.SweepSpec) ([]byte, error) {
	res, err := server.ExecuteSpec(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
