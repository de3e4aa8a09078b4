package telemetry

import (
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// promLine matches one Prometheus text-format sample or comment line.
var promLine = regexp.MustCompile(
	`^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?)$`)

func TestHandlerSurfaces(t *testing.T) {
	r := NewRegistry()
	r.Counter("fsb_events_total").Add(77)
	r.Gauge("tracestore_bytes_resident").Set(1024)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "fsb_events_total 77") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("invalid Prometheus text line: %q", line)
		}
	}

	code, _ = get(t, srv, "/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
	code, body = get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index page: %d %q", code, body)
	}
	code, _ = get(t, srv, "/nope")
	if code != 404 {
		t.Errorf("unknown path status %d", code)
	}
}
