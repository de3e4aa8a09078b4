package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if r.Counter("x_total") != c {
		t.Error("same name must return the same counter")
	}
}

func TestNilHandlesAreFree(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	if c != nil || g != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(-1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if snap.Counters != nil {
		t.Error("nil registry snapshot must be empty")
	}
	var s *Span
	child := s.StartChild("x")
	if child != nil {
		t.Error("nil span must produce nil children")
	}
	child.End()
	child.SetAttr("k", "v")
	var sink *Sink
	if sink.Registry() != nil || sink.StartSpan("x") != nil {
		t.Error("nil sink must hand out nils")
	}
	if err := sink.Emit(&Manifest{}); err != nil {
		t.Error("nil sink Emit must be a no-op")
	}
	sink.Expect(3)
	var mw *ManifestWriter
	if err := mw.Emit(&Manifest{}); err != nil || mw.Close() != nil {
		t.Error("nil manifest writer must be a no-op")
	}
}

// The counter's total must be exact under concurrent writers.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("concurrent_total")
	const workers, per = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("resident_bytes")
	g.Set(100)
	g.Add(-30)
	if g.Value() != 70 {
		t.Fatalf("Value = %d", g.Value())
	}
}

func TestSnapshotAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(5)
	r.Gauge("depth").Set(-2)
	snap := r.Snapshot()
	if snap.Counters["events_total"] != 5 || snap.Gauges["depth"] != -2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	out := buf.String()
	for _, want := range []string{
		"# TYPE events_total counter\nevents_total 5\n",
		"# TYPE depth gauge\ndepth -2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	// Nil registry renders nothing.
	buf.Reset()
	WritePrometheus(&buf, nil)
	if buf.Len() != 0 {
		t.Error("nil registry must render empty")
	}
}

func TestPromName(t *testing.T) {
	if got := promName("fsb.batch occupancy/1"); got != "fsb_batch_occupancy_1" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("0abc"); got != "_abc" {
		t.Errorf("leading digit must sanitize, got %q", got)
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("run")
	a := root.StartChild("capture")
	a.SetAttr("workload", "FIMI")
	a.End()
	b := root.StartChild("replay")
	b.End()
	b.End() // idempotent
	wall := b.WallNS
	root.End()
	if b.WallNS != wall {
		t.Error("second End must not re-measure")
	}
	if len(root.Children) != 2 || root.Children[0].Name != "capture" {
		t.Fatalf("children = %+v", root.Children)
	}
	if root.WallNS == 0 || a.WallNS == 0 {
		t.Error("ended spans must have non-zero wall time")
	}
	if a.Attrs["workload"] != "FIMI" {
		t.Error("attr lost")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := StartSpan("sweep")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.StartChild("w").End()
		}()
	}
	wg.Wait()
	root.End()
	if len(root.Children) != 32 {
		t.Fatalf("children = %d, want 32", len(root.Children))
	}
}

func TestManifestWriter(t *testing.T) {
	var buf bytes.Buffer
	mw := NewManifestWriter(&buf)
	m := &Manifest{Kind: "plansweep", Workload: "FIMI", Seed: 1,
		Summary: &RunTotals{Instructions: 123, BusEvents: 456}}
	if err := mw.Emit(m); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("manifest must be one JSONL line: %q", line)
	}
	var back Manifest
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Workload != "FIMI" || back.Summary.Instructions != 123 {
		t.Errorf("round trip = %+v", back)
	}
	if back.Time == "" || back.GoVersion == "" || back.Host == "" {
		t.Error("Emit must stamp time/go_version/host")
	}
}

func TestSinkEmitAttachesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(9)
	var buf bytes.Buffer
	s := NewSink(r, NewManifestWriter(&buf), nil)
	if err := s.Emit(&Manifest{Kind: "run"}); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters == nil || back.Counters.Counters["c_total"] != 9 {
		t.Errorf("snapshot not attached: %+v", back.Counters)
	}
}

// TestProgress pins the line Sink.Emit prints from each manifest:
// "[k/n]" once Expect declared a total, "[k]" without one.
func TestProgress(t *testing.T) {
	manifest := func(workload string) *Manifest {
		return &Manifest{Workload: workload, DurationNS: 1e6,
			Summary: &RunTotals{BusEvents: 1000},
			LLCs:    []LLCRecord{{Accesses: 4, Misses: 1}}}
	}
	var buf bytes.Buffer
	s := NewSink(nil, nil, &buf)
	s.Expect(2)
	for _, w := range []string{"FIMI", "MDS"} {
		if err := s.Emit(manifest(w)); err != nil {
			t.Fatal(err)
		}
	}
	want := "[1/2] FIMI llcs=1 hiers=0 1.0 Mrefs/s miss=25.00%\n" +
		"[2/2] MDS llcs=1 hiers=0 1.0 Mrefs/s miss=25.00%\n"
	if buf.String() != want {
		t.Errorf("progress output:\n%s\nwant:\n%s", buf.String(), want)
	}
	var unTotaled bytes.Buffer
	NewSink(nil, NewManifestWriter(io.Discard), &unTotaled).Emit(manifest("SHOT"))
	if got := unTotaled.String(); got != "[1] SHOT llcs=1 hiers=0 1.0 Mrefs/s miss=25.00%\n" {
		t.Errorf("unknown total must render [k]: %q", got)
	}

	// Pool workers emit concurrently: every manifest gets its own k.
	var par bytes.Buffer
	ps := NewSink(nil, nil, &par)
	ps.Expect(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.Emit(manifest("MDS"))
		}()
	}
	wg.Wait()
	for k := 1; k <= 8; k++ {
		if line := fmt.Sprintf("[%d/8] MDS ", k); strings.Count(par.String(), line) != 1 {
			t.Errorf("want one line starting %q in:\n%s", line, par.String())
		}
	}
}

// BenchmarkCounterDisabled measures the disabled fast path: a nil
// counter must cost a branch, allocate nothing, and be immeasurably
// cheap next to any simulator work.
func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("off")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterEnabled measures the single-goroutine enabled path.
func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("on")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("total wrong")
	}
}

// BenchmarkCounterParallel measures the worst case of one word shared
// by every goroutine writing in a tight loop, which no instrumented
// package does: they write once per batch.
func BenchmarkCounterParallel(b *testing.B) {
	c := NewRegistry().Counter("par")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
