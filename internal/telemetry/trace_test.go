package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDisabledTracingAllocatesNothing pins the disabled-path contract:
// every per-event operation on nil handles is allocation-free, so a
// run without telemetry pays nothing on the hot path.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	var sp *Span
	var sink *Sink
	m := &Manifest{Kind: "plansweep", Workload: "FIMI", Summary: &RunTotals{BusEvents: 1}}
	if n := testing.AllocsPerRun(1000, func() {
		c := sp.StartChild("queue_wait")
		c.SetAttr("k", "v")
		c.End()
		g := sp.StartChild("capture")
		g.AddTimedChild("shard0", 0, 5)
		g.End()
		_ = sp.Find("x")
		_ = sp.SerialChildSum()
		sink.Expect(1)
		_ = sink.Emit(m)
		_ = sink.Registry()
		_ = sink.StartSpan("run")
	}); n != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op, want 0", n)
	}
}

func TestSpanFindAndSerialChildSum(t *testing.T) {
	root := &Span{Name: "request", WallNS: 100}
	root.AddTimedChild("queue_wait", 0, 30)
	sweep := root.AddTimedChild("plansweep/SNP", 0, 60)
	store := sweep.AddTimedChild("store", 0, 50)
	store.AddTimedChild("capture", 0, 45)
	shards := sweep.AddTimedChild("shards", 0, 40)
	shards.SetAttr(AttrConcurrent, "true")
	if got := root.SerialChildSum(); got != 90 {
		t.Errorf("SerialChildSum = %d, want 90", got)
	}
	// The concurrent shards group must not count toward the sweep's sum.
	if got := sweep.SerialChildSum(); got != 50 {
		t.Errorf("sweep SerialChildSum = %d, want 50 (concurrent skipped)", got)
	}
	if f := root.Find("capture"); f == nil || f.WallNS != 45 {
		t.Errorf("Find(capture) = %+v", f)
	}
	if root.Find("nope") != nil {
		t.Error("Find must return nil for absent names")
	}
	// AddTimedChild clamps a zero duration to the measurable minimum.
	if z := root.AddTimedChild("zero", 0, 0); z.WallNS != 1 {
		t.Errorf("zero-duration timed child WallNS = %d, want 1", z.WallNS)
	}
}

func TestManifestRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.jsonl")
	// Every line is the same length (stamps fixed, one-digit seeds), so
	// a bound of two lines rotates after every 2 manifests.
	manifest := func(seed int64) *Manifest {
		return &Manifest{Kind: "run", Seed: seed, Time: "t", GitRev: "r", GoVersion: "g", Host: "h"}
	}
	line, err := json.Marshal(manifest(1))
	if err != nil {
		t.Fatal(err)
	}
	mw, err := OpenManifestFile(path, 2*uint64(len(line)+1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := mw.Emit(manifest(int64(i))); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	active, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	// 5 entries at 2/file: generations hold [1,2] [3,4] [5]; the live
	// file has the newest single entry, the .1 file the previous pair.
	if n := strings.Count(string(active), "\n"); n != 1 {
		t.Errorf("active file has %d lines, want 1", n)
	}
	if n := strings.Count(string(rotated), "\n"); n != 2 {
		t.Errorf("rotated file has %d lines, want 2", n)
	}
	if !strings.Contains(string(rotated), `"seed":3`) || !strings.Contains(string(active), `"seed":5`) {
		t.Errorf("generations out of order:\nactive %s\nrotated %s", active, rotated)
	}
}

func TestManifestRotationBySize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.jsonl")
	mw, err := OpenManifestFile(path, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := mw.Emit(&Manifest{Kind: "run"}); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("size bound never rotated the file: %v", err)
	}
	// Re-opening an existing file picks up its size so the bound holds
	// across restarts.
	mw2, err := OpenManifestFile(path, 300)
	if err != nil {
		t.Fatal(err)
	}
	defer mw2.Close()
	if mw2.fileBytes == 0 {
		t.Error("reopened writer must account for existing bytes")
	}
}

func TestWriteFolded(t *testing.T) {
	root := &Span{Name: "request", WallNS: 100}
	root.AddTimedChild("queue_wait", 0, 30)
	sweep := root.AddTimedChild("plansweep;SNP", 0, 60) // semicolon must escape
	shards := sweep.AddTimedChild("shards", 0, 55)
	shards.SetAttr(AttrConcurrent, "true")
	var sb strings.Builder
	if err := WriteFolded(&sb, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"request 10\n",            // 100 - 30 - 60 self
		"request;queue_wait 30\n", // leaf keeps its full time
		"request;plansweep,SNP 60\n",
		"request;plansweep,SNP;shards 55\n", // concurrent child still gets a line
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output missing %q:\n%s", want, out)
		}
	}
	if err := WriteFolded(&sb, nil); err != nil {
		t.Errorf("nil root must be a no-op: %v", err)
	}
}

func TestWriteWaterfall(t *testing.T) {
	root := &Span{Name: "request", WallNS: 2_000_000, StartUnixNS: 1_000}
	c := root.AddTimedChild("queue_wait", 1_500, 500_000)
	c.SetAttr("tenant", "alice")
	var sb strings.Builder
	if err := WriteWaterfall(&sb, root); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"request", "└─ queue_wait", "2.00ms", "@+500ns", "{tenant=alice}"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	if err := WriteWaterfall(&sb, nil); err != nil {
		t.Errorf("nil root must be a no-op: %v", err)
	}
}
