package main

import (
	"fmt"
	"io"
	"sort"
)

// metric is one reported number: the median of N samples with the
// quartiles beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// record is the outcome of one pass of one workload.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Smoke    bool   `json:"smoke,omitempty"`
	Correct  bool   `json:"correct"`
	// Attempted counts every iteration, request and correctness check;
	// Failed those that erred, were refused, or did not match.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// SimDigest is the SHA-256 of the canonical simulated results, so
	// two commits can be compared exactly without golden numbers.
	SimDigest string `json:"sim_digest"`
	// Counts are simulated quantities that must repeat exactly for a
	// given seed (instructions, bus events, configurations answered).
	Counts  map[string]uint64 `json:"counts"`
	Metrics map[string]metric `json:"metrics"`
}

func newRecord(workload string, o options) *record {
	return &record{
		Workload: workload, Seed: o.seed, Trace: b2i(o.trace), Smoke: o.smoke,
		Counts: map[string]uint64{}, Metrics: map[string]metric{},
	}
}

// check counts one attempted operation and, when ok is false, one
// failure with its reason.
func (r *record) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// failf records an operation that failed outright.
func (r *record) failf(format string, args ...any) { r.check(false, format, args...) }

// set reports a metric as the median of its samples. Units come from
// the metric's definition, so a name the benchmark does not define
// cannot be emitted.
func (r *record) set(name string, samples ...float64) {
	d := findMetric(name)
	if d == nil {
		r.failf("metric %s is not defined", name)
		return
	}
	if len(samples) == 0 {
		r.failf("metric %s has no samples", name)
		return
	}
	q1, med, q3 := quartiles(samples)
	r.Metrics[name] = metric{Value: med, Unit: d.Unit, N: len(samples), Q1: q1, Q3: q3}
}

// contractLine is the driver-facing result: exactly these four keys,
// each metric reduced to value and unit.
func (r *record) contractLine() map[string]any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]vu, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = vu{v.Value, v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

// print renders the record for a person: every metric by name with its
// unit and sample count.
func (r *record) print(w io.Writer) {
	pass := "timed"
	if r.Trace != 0 {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s pass  %d operations, %d failed  sim_digest %.16s\n",
		r.Workload, r.Seed, pass, r.Attempted, r.Failed, r.SimDigest)
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  %-42s %14d count\n", k, r.Counts[k])
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-42s %14.8g %-8s n=%-3d q1 %.6g  q3 %.6g\n", k, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// percentile returns the value at or below which a fraction q of the
// samples lie (nearest rank).
func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}
