// Live HTTP surface: the -metrics-addr endpoint of cmd/cosim.
//
//	/metrics       Prometheus text exposition format
//	/debug/pprof/  the standard net/http/pprof profiles
//
// The handlers read the registry through Snapshot, so scraping a live
// sweep is lock-free with respect to the writers.

package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Drain gracefully shuts srv down: it stops accepting connections and
// waits up to timeout for in-flight requests — an active /metrics
// scrape, a streaming SSE client — to complete before force-closing
// whatever remains. A signal handler that calls Drain instead of
// exiting keeps a mid-scrape Prometheus collector from recording a
// truncated exposition.
func Drain(srv *http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}

// Handler serves the full observability surface for r.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "cosim telemetry: /metrics /debug/pprof/")
	})
	return mux
}

// promName sanitizes a metric name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, names sorted for deterministic output.
func WritePrometheus(w io.Writer, r *Registry) {
	if r == nil {
		return
	}
	snap := r.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		n := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		n := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, snap.Gauges[name])
	}
}
