// The trace subcommand: render span trees captured by cosim/cosimd as a
// human-readable waterfall or as folded stacks consumable by standard
// flamegraph tooling (flamegraph.pl, speedscope, inferno).
//
// Input is a stream of JSON objects — JSONL, or one object compact or
// pretty-printed (`curl …/v1/sweeps/{id} | jq .`) — read from the file
// argument, the -manifest path, or stdin ("-" or nothing). Three shapes
// are understood, auto-detected per record:
//
//   - run manifests (telemetry.Manifest: {"kind": ..., "trace": {...}})
//   - job status bodies from GET /v1/sweeps/{id} ({"id": ..., "trace": ...})
//   - bare span trees ({"name": ..., "wall_ns": ...})
//
// Usage:
//
//	cosim trace [-fold] [-job id] [-kind k] [-last] [file]
//
//	-fold   emit folded stacks (semicolon-joined path + self wall ns)
//	        instead of the default waterfall
//	-job    only render records whose job id matches
//	-kind   only render manifests of this kind (e.g. "request")
//	-last   render only the last matching record

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cmpmem/internal/telemetry"
)

// traceCmd parses the subcommand's own flags from args; path carries
// the value of cosim's global -manifest flag as the default input.
func traceCmd(args []string, path string, out io.Writer) error {
	fs := flag.NewFlagSet("cosim trace", flag.ContinueOnError)
	fold := fs.Bool("fold", false, "emit folded stacks instead of a waterfall")
	job := fs.String("job", "", "only render records for this job id")
	kind := fs.String("kind", "", "only render manifests of this kind")
	last := fs.Bool("last", false, "render only the last matching record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		path = fs.Arg(0)
	}
	in := io.Reader(os.Stdin)
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	recs, err := decodeTraceRecords(in, *job, *kind)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("trace: no matching span trees (is this a manifest stream?)")
	}
	if *last {
		recs = recs[len(recs)-1:]
	}
	for i, r := range recs {
		if *fold {
			if err := telemetry.WriteFolded(out, r.Trace); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		if r.Kind != "" || r.Job != "" || r.TraceID != "" { // not a bare span tree
			fmt.Fprintf(out, "# job=%s tenant=%s trace=%s kind=%s workload=%s\n", r.Job, r.Tenant, r.TraceID, r.Kind, r.Workload)
		}
		if err := telemetry.WriteWaterfall(out, r.Trace); err != nil {
			return err
		}
	}
	return nil
}

// traceRecord is the union of the three understood input shapes: a
// manifest, plus the key a job-status body names its job by and the
// key that marks a bare span tree. Decoded records are normalized to
// the manifest's fields (Job, Trace).
type traceRecord struct {
	telemetry.Manifest
	ID   string `json:"id"`
	Name string `json:"name"`
}

// decodeTraceRecords parses every JSON value in r, keeping those that
// carry a span tree and pass the filters.
func decodeTraceRecords(r io.Reader, jobFilter, kindFilter string) ([]traceRecord, error) {
	var out []traceRecord
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("record %d: %w", n, err)
		}
		var rec traceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", n, err)
		}
		if rec.Trace == nil && rec.Name != "" {
			rec.Trace = &telemetry.Span{}
			if err := json.Unmarshal(raw, rec.Trace); err != nil {
				return nil, fmt.Errorf("record %d: %w", n, err)
			}
		}
		if rec.Trace == nil {
			continue // a record without a trace (e.g. tracing was off)
		}
		if rec.Job == "" {
			rec.Job = rec.ID
		}
		if (jobFilter != "" && rec.Job != jobFilter) || (kindFilter != "" && rec.Kind != kindFilter) {
			continue
		}
		out = append(out, rec)
	}
}
