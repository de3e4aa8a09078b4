// Codec-size acceptance test: the delta codec must compress the
// FIMI SCMP reference stream at least 4x better than fixed 16-byte
// records (8-byte address, core, size, kind, padding) would. The stream
// is the real thing — captured from a live 8-core run — so the asserted
// ratio tracks the actual delta distribution of the workloads, not a
// synthetic best case.
package cmpmem_test

import (
	"bytes"
	"testing"

	"cmpmem/internal/core"
	"cmpmem/internal/trace"
	"cmpmem/internal/workloads"
)

func TestCodecCompressionRatioFIMI(t *testing.T) {
	var refs []trace.Ref
	_, err := core.TraceCapture("FIMI",
		workloads.Params{Seed: 1, Scale: 1.0 / 256},
		core.PlatformConfig{Threads: 8, Seed: 1},
		func(r trace.Ref) { refs = append(refs, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 10_000 {
		t.Fatalf("captured only %d refs; stream too small to be meaningful", len(refs))
	}
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fixed := 8 + 16*len(refs) // file header + one 16-byte record per reference
	coded := buf.Len()
	ratio := float64(fixed) / float64(coded)
	t.Logf("FIMI SCMP stream: %d refs, fixed %d B, coded %d B, ratio %.2fx", len(refs), fixed, coded, ratio)
	if ratio < 4 {
		t.Errorf("compression ratio %.2fx below the required 4x (fixed %d B, coded %d B)", ratio, fixed, coded)
	}
	// Round-trip the buffer to guard against a codec that shrinks by
	// dropping information.
	p, err := trace.NewStreamPlayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		got, ok := p.Next()
		if !ok {
			t.Fatalf("round trip lost records: %d of %d (err %v)", i, len(refs), p.Err())
		}
		if got != want {
			t.Fatalf("round trip corrupted record %d: %+v vs %+v", i, got, want)
		}
	}
	if _, ok := p.Next(); ok || p.Err() != nil {
		t.Fatalf("round trip did not end cleanly after %d records (err %v)", len(refs), p.Err())
	}
}
