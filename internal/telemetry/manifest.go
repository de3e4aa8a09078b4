// Machine-readable run manifests: one JSON object per experiment run,
// appended to a JSONL stream. A manifest records everything needed to
// regenerate or audit a recorded benchmark number — workload, parameters,
// platform, seed, git revision, wall/CPU time, the span tree, the
// execution-side totals, per-LLC results, and a counter snapshot — so
// benchmark records become generated output instead of hand-edited
// files.

package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// RunTotals mirrors the execution-side totals of a run (core.RunSummary
// without the import cycle). Fields are bit-exact integers: a manifest's
// totals must match the RunSummary the caller received.
type RunTotals struct {
	Instructions uint64 `json:"instructions"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`
	BusEvents    uint64 `json:"bus_events"`
}

// LLCRecord is one emulated LLC configuration's outcome.
type LLCRecord struct {
	Name      string  `json:"name"`
	SizeBytes uint64  `json:"size_bytes"`
	LineSize  uint64  `json:"line_size"`
	Assoc     int     `json:"assoc"`
	Accesses  uint64  `json:"accesses"`
	Misses    uint64  `json:"misses"`
	MPKI      float64 `json:"mpki"`
	Samples   int     `json:"cb_samples"`
}

// HierRecord is one timing-hierarchy configuration's outcome.
type HierRecord struct {
	IPC      float64 `json:"ipc"`
	Cycles   float64 `json:"cycles"`
	L1Misses uint64  `json:"l1_misses"`
	L2Misses uint64  `json:"l2_misses"`
}

// Manifest is one run record. Emit stamps Time, GitRev, GoVersion,
// Host, and the counter snapshot; callers fill the rest.
type Manifest struct {
	Time     string  `json:"time"`
	Kind     string  `json:"kind"`
	Workload string  `json:"workload,omitempty"`
	Threads  int     `json:"threads,omitempty"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale,omitempty"`
	Quantum  uint64  `json:"quantum,omitempty"`

	GitRev    string `json:"git_rev,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	Host      string `json:"host,omitempty"`

	DurationNS uint64 `json:"duration_ns"`

	Summary *RunTotals  `json:"summary,omitempty"`
	LLCs    []LLCRecord `json:"llcs,omitempty"`
	// Hiers has one record per timing-hierarchy config the run answered,
	// in the caller's order.
	Hiers []HierRecord `json:"hiers,omitempty"`

	// Request-scoped manifests (kind "request", emitted by cosimd per
	// completed job) carry the correlation triple below.
	Tenant  string `json:"tenant,omitempty"`
	Job     string `json:"job,omitempty"`
	TraceID string `json:"trace_id,omitempty"`

	Trace    *Span     `json:"trace,omitempty"`
	Counters *Snapshot `json:"telemetry,omitempty"`
}

// ManifestWriter appends manifests to one JSONL stream. Safe for
// concurrent use (the parallel exhibit runners emit from pool workers).
//
// File-backed writers opened with a rotation limit keep the stream
// bounded under a long-lived cosimd: when the active file would exceed
// maxBytes, it is renamed to path+".1" (replacing the
// previous generation) and a fresh file is started, so disk usage is
// capped at roughly twice the configured size.
type ManifestWriter struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer // non-nil when the writer owns the file

	// rotation state (file-backed writers with a limit only)
	path      string
	maxBytes  uint64
	fileBytes uint64 // bytes in the active file
	fileCount uint64 // entries in the active file
}

// NewManifestWriter wraps an existing stream.
func NewManifestWriter(w io.Writer) *ManifestWriter { return &ManifestWriter{w: w} }

// OpenManifestFile opens (or creates) path for appending and returns a
// writer that owns the file; Close releases it. The active file is
// rotated to path+".1" before a write that would push it past maxBytes
// bytes. Zero means unbounded.
func OpenManifestFile(path string, maxBytes uint64) (*ManifestWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	mw := &ManifestWriter{w: f, c: f, path: path, maxBytes: maxBytes}
	if st, err := f.Stat(); err == nil {
		mw.fileBytes = uint64(st.Size())
	}
	return mw, nil
}

// rotateLocked swaps the active file for a fresh one. Called with mu
// held; a rotation failure is returned to the caller of Emit and the
// writer keeps appending to the old file (degraded, not broken).
func (mw *ManifestWriter) rotateLocked() error {
	f, ok := mw.c.(*os.File)
	if !ok {
		return nil
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(mw.path, mw.path+".1"); err != nil {
		// Reopen the original so the stream keeps working.
		if re, rerr := os.OpenFile(mw.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); rerr == nil {
			mw.w, mw.c = re, re
		}
		return err
	}
	nf, err := os.OpenFile(mw.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	mw.w, mw.c = nf, nf
	mw.fileBytes, mw.fileCount = 0, 0
	return nil
}

// Emit stamps and appends one manifest line. Nil-safe: a nil writer
// drops the manifest.
func (mw *ManifestWriter) Emit(m *Manifest) error {
	if mw == nil || m == nil {
		return nil
	}
	if m.Time == "" {
		m.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if m.GitRev == "" {
		m.GitRev = GitRev()
	}
	if m.GoVersion == "" {
		m.GoVersion = runtime.Version()
	}
	if m.Host == "" {
		m.Host = runtime.GOOS + "/" + runtime.GOARCH
	}
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	mw.mu.Lock()
	defer mw.mu.Unlock()
	if mw.path != "" && mw.fileCount > 0 && mw.maxBytes > 0 && mw.fileBytes+uint64(len(line)) > mw.maxBytes {
		if err := mw.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := mw.w.Write(line); err != nil {
		return err
	}
	mw.fileBytes += uint64(len(line))
	mw.fileCount++
	return nil
}

// Close releases the underlying file when the writer owns one.
func (mw *ManifestWriter) Close() error {
	if mw == nil || mw.c == nil {
		return nil
	}
	return mw.c.Close()
}

// gitRevOnce caches the build-info VCS revision lookup.
var gitRevOnce = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
})

// GitRev returns the VCS revision baked into the binary ("" when built
// without VCS stamping, e.g. under `go test`).
func GitRev() string { return gitRevOnce() }
