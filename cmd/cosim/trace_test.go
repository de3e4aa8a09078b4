package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleManifests is a three-line JSONL stream: two request manifests
// (one per job) and one record without a trace (tracing disabled).
const sampleManifests = `{"kind":"request","job":"j-1","tenant":"alice","trace_id":"aaaa","trace":{"name":"request","wall_ns":2000000,"children":[{"name":"queue_wait","wall_ns":500000},{"name":"plansweep/SNP","wall_ns":1400000,"children":[{"name":"store","wall_ns":1300000,"attrs":{"outcome":"miss"},"children":[{"name":"capture","wall_ns":1250000}]}]}]}}
{"kind":"request","job":"j-2","tenant":"bob","trace_id":"bbbb","trace":{"name":"request","wall_ns":900000,"children":[{"name":"cache_lookup","wall_ns":1000,"attrs":{"hit":"true"}}]}}
{"kind":"plansweep","seed":1,"duration_ns":5}
`

// traceRun drives the trace subcommand as `cosim trace args...` does,
// with no global -manifest in effect.
func traceRun(out *strings.Builder, args ...string) error {
	return traceCmd(args, "", out)
}

func writeSample(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "manifest.jsonl")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWaterfallOutput(t *testing.T) {
	var sb strings.Builder
	if err := traceRun(&sb, writeSample(t, sampleManifests)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# job=j-1 tenant=alice trace=aaaa kind=request",
		"# job=j-2 tenant=bob trace=bbbb kind=request",
		"queue_wait",
		"└─ capture",
		"{outcome=miss}",
		"2.00ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
}

func TestFoldedOutput(t *testing.T) {
	var sb strings.Builder
	if err := traceRun(&sb, "-fold", writeSample(t, sampleManifests)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"request;queue_wait 500000\n",
		"request;plansweep/SNP;store;capture 1250000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "#") {
		t.Error("folded output must carry no headers (flamegraph input)")
	}
	// `cosim -manifest f trace -fold`: the global -manifest is the
	// subcommand's default input.
	var viaGlobal strings.Builder
	if err := traceCmd([]string{"-fold"}, writeSample(t, sampleManifests), &viaGlobal); err != nil {
		t.Fatal(err)
	}
	if viaGlobal.String() != out {
		t.Errorf("global -manifest rendered differently:\n%s", viaGlobal.String())
	}
}

func TestJobAndKindFilters(t *testing.T) {
	p := writeSample(t, sampleManifests)
	var sb strings.Builder
	if err := traceRun(&sb, "-job", "j-2", p); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "j-1") || !strings.Contains(sb.String(), "j-2") {
		t.Errorf("job filter failed:\n%s", sb.String())
	}
	var sb2 strings.Builder
	if err := traceRun(&sb2, "-kind", "request", "-last", p); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb2.String(), "j-1") || !strings.Contains(sb2.String(), "j-2") {
		t.Errorf("-kind -last must keep only the final request:\n%s", sb2.String())
	}
	var sb3 strings.Builder
	if err := traceRun(&sb3, "-job", "no-such", p); err == nil {
		t.Error("a filter matching nothing must error")
	}
}

func TestBareSpanAndJobStatusShapes(t *testing.T) {
	// A job-status body (id + trace) and a bare span tree.
	body := `{"id":"j-9","tenant":"carol","state":"done","trace_id":"cccc","trace":{"name":"request","wall_ns":100}}
{"name":"plansweep/KM","wall_ns":77,"children":[{"name":"store","wall_ns":70}]}
`
	var sb strings.Builder
	if err := traceRun(&sb, writeSample(t, body)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# job=j-9 tenant=carol trace=cccc") {
		t.Errorf("job-status shape not recognized:\n%s", out)
	}
	if !strings.Contains(out, "plansweep/KM") || !strings.Contains(out, "└─ store") {
		t.Errorf("bare span shape not rendered:\n%s", out)
	}
}

// TestPrettyPrintedInput: a job-status body and a bare span tree render
// the same whether compact or pretty-printed (`jq .`), as waterfalls
// and as folded stacks, and a truncated object is an error.
func TestPrettyPrintedInput(t *testing.T) {
	status := `{"id":"j-9","tenant":"carol","state":"done","trace_id":"cccc","trace":{"name":"request","wall_ns":2000,"children":[{"name":"queue_wait","wall_ns":500},{"name":"plansweep/KM","wall_ns":1400,"attrs":{"emulated_configs":"0"}}]}}`
	span := `{"name":"plansweep/KM","wall_ns":77,"children":[{"name":"store","wall_ns":70,"attrs":{"outcome":"hit"}}]}`
	for _, compact := range []string{status, span} {
		var v any
		if err := json.Unmarshal([]byte(compact), &v); err != nil {
			t.Fatal(err)
		}
		pretty, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{nil, {"-fold"}} {
			var want, got strings.Builder
			if err := traceRun(&want, append(args, writeSample(t, compact+"\n"))...); err != nil {
				t.Fatalf("compact %v: %v", args, err)
			}
			if err := traceRun(&got, append(args, writeSample(t, string(pretty)+"\n"))...); err != nil {
				t.Fatalf("pretty-printed %v: %v", args, err)
			}
			if got.String() != want.String() {
				t.Errorf("trace %v: pretty-printed input rendered\n%s\nwant\n%s", args, got.String(), want.String())
			}
		}
		var sb strings.Builder
		if err := traceRun(&sb, writeSample(t, string(pretty[:len(pretty)/2]))); err == nil {
			t.Errorf("truncated object rendered without error:\n%s", sb.String())
		}
	}
}

func TestNoTracesIsAnError(t *testing.T) {
	var sb strings.Builder
	if err := traceRun(&sb, writeSample(t, `{"kind":"plansweep","seed":1,"duration_ns":5}`)); err == nil {
		t.Error("trace-free input must error, not print nothing")
	}
}
