// Command cosimd serves co-simulation sweeps over HTTP: a multi-tenant
// front end to the same CombinedSweep engine the cosim CLI runs, with
// admission control, per-tenant weighted fair queuing, a shared
// execute-once/replay-many tracestore, and a content-addressed result
// cache. Results are bit-identical to `cosim sweep` on the same spec.
//
// Endpoints:
//
//	POST /v1/sweeps             submit a spec (X-Tenant names the tenant);
//	                            201 + job id, or 429 + Retry-After when
//	                            the admission queue is full
//	GET  /v1/sweeps/{id}        job status; result JSON once done
//	GET  /v1/sweeps/{id}/events SSE progress: queued, capturing (a store
//	                            miss answers the job as it captures) or
//	                            replaying, per-config completion, done
//	GET  /v1/healthz            liveness
//	GET  /v1/version            git revision
//	GET  /v1/statusz            queue/tracestore/result-cache snapshot
//	GET  /metrics               Prometheus text (cosimd_* + simulator)
//
// Flags:
//
//	-addr             listen address (default :8344)
//	-workers n        concurrent sweep executions (default 2)
//	-queue-cap n      admission queue bound (default 256)
//	-tenant-weights   comma list of tenant=weight DRR overrides; only
//	                  these tenants get per-tenant metric series, the
//	                  rest share the "other" series
//	-result-cache-mb  result cache budget (default 256)
//	-trace-mb         tracestore resident budget (default 1024)
//	-trace-dir        spill captured traces to this directory
//	-retain n         finished jobs kept queryable (default 4096)
//	-drain d          shutdown drain timeout (default 10s)
//	-manifest path    append per-request JSONL manifests (span trees)
//	-manifest-max-mb  rotate the manifest file past this size (default 64)
//
// No numeric flag may be negative: run rejects one before it opens the
// manifest or listens.
//
// SIGINT/SIGTERM drains gracefully: admission stops, queued jobs fail
// loudly, in-flight sweeps get the drain timeout to finish, and the
// HTTP server shuts down via http.Server.Shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cmpmem/internal/server"
	"cmpmem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosimd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cosimd", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	workers := fs.Int("workers", server.DefaultWorkers, "concurrent sweep executions")
	queueCap := fs.Int("queue-cap", server.DefaultQueueCap, "admission queue bound")
	weightsFlag := fs.String("tenant-weights", "", "comma list of tenant=weight fair-queue overrides")
	resultMB := fs.Int("result-cache-mb", server.DefaultResultCacheBytes>>20, "result cache budget in MiB")
	traceMB := fs.Int("trace-mb", 1024, "tracestore resident budget in MiB")
	traceDir := fs.String("trace-dir", "", "spill captured traces to this directory")
	retain := fs.Int("retain", server.DefaultRetainJobs, "finished jobs kept queryable")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain timeout")
	manifestPath := fs.String("manifest", "", "append per-request JSONL manifests to this file")
	manifestMaxMB := fs.Int("manifest-max-mb", 64, "rotate the manifest file past this many MiB (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every numeric flag is a count, a budget or a timeout: a negative
	// one would wrap to an unbounded budget or silently mean a default.
	var negative error
	fs.Visit(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && negative == nil {
			negative = fmt.Errorf("-%s %s: must not be negative", f.Name, f.Value)
		}
	})
	if negative != nil {
		return negative
	}
	weights, err := parseWeights(*weightsFlag)
	if err != nil {
		return err
	}
	var manifest *telemetry.ManifestWriter
	if *manifestPath != "" {
		manifest, err = telemetry.OpenManifestFile(*manifestPath, uint64(*manifestMaxMB)<<20)
		if err != nil {
			return err
		}
		defer manifest.Close()
	}

	s := server.New(server.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		TenantWeights:    weights,
		ResultCacheBytes: uint64(*resultMB) << 20,
		TraceStoreBytes:  uint64(*traceMB) << 20,
		TraceDir:         *traceDir,
		RetainJobs:       *retain,
		Manifest:         manifest,
	})
	s.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	cfg := s.Config()
	fmt.Fprintf(os.Stderr, "cosimd: serving http://%s (rev %s, %d workers, queue cap %d)\n",
		ln.Addr(), telemetry.GitRev(), cfg.Workers, cfg.QueueCap)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cosimd: %v, draining (timeout %v)\n", sig, *drain)
	}
	signal.Stop(sigc)

	// Wind down the worker pool and the HTTP server together: Shutdown
	// closes the server's stop channel first, which unblocks open SSE
	// streams so the HTTP drain can complete; Drain then lets in-flight
	// requests finish before connections close.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutErr := make(chan error, 1)
	go func() { shutErr <- s.Shutdown(ctx) }()
	if err := telemetry.Drain(srv, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "cosimd: http drain:", err)
	}
	if err := <-shutErr; err != nil {
		return fmt.Errorf("worker drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "cosimd: drained cleanly")
	return nil
}

// parseWeights parses "tenantA=3,tenantB=1" into a weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant-weights: %q is not tenant=weight", part)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant-weights: bad weight %q for %q", v, k)
		}
		out[k] = w
	}
	return out, nil
}
