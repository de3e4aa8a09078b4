package tracestore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// bigTrace records a stream of about 6 MB — two dozen chunks, with
// records straddling the boundaries — and returns it with its events.
func bigTrace(t *testing.T) (*Trace, []trace.Ref) {
	t.Helper()
	refs := make([]trace.Ref, 1<<20)
	for i := range refs {
		refs[i] = trace.Ref{Addr: mem.Addr(0x10000 + 8*i + (i%7)<<20), Core: uint8(i % 3), Size: 8, Kind: mem.Kind(i % 2)}
	}
	rec := NewRecorder()
	for _, r := range refs {
		rec.Add(r)
	}
	tr, err := rec.Finish(Summary{Workload: "BIG", Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.chunks) < 4 {
		t.Fatalf("the stream fills %d chunks; the test needs several", len(tr.chunks))
	}
	return tr, refs
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestChunkedResidency pins what a capture costs: recording encodes
// straight into the chunks, so it allocates the stream plus at most the
// last chunk's free tail, the chunk list and the recorder (a doubling
// buffer allocates about twice the stream), and SizeBytes —
// the store's budget — is within one chunk of the encoded length, which
// is also what is resident.
func TestChunkedResidency(t *testing.T) {
	var tr *Trace
	var refs []trace.Ref
	tr, refs = bigTrace(t)
	got := allocated(func() {
		rec := NewRecorder()
		for _, r := range refs {
			rec.Add(r)
		}
		var err error
		if tr, err = rec.Finish(Summary{Workload: "BIG", Threads: 3}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("recording: %d B stream, %d B allocated", tr.EncodedLen(), got)
	if limit := uint64(tr.EncodedLen() + chunkSize + 16<<10); got > limit {
		t.Errorf("recording a %d B stream allocated %d B, want <= %d", tr.EncodedLen(), got, limit)
	}
	if over := tr.SizeBytes() - uint64(tr.EncodedLen()); over > chunkSize+traceOverhead {
		t.Errorf("SizeBytes %d exceeds EncodedLen %d by more than one chunk", tr.SizeBytes(), tr.EncodedLen())
	}
	if p, _ := tr.Player(); !slices.Equal(drain(t, p), refs) {
		t.Error("the chunked stream does not decode to the recorded events")
	}
}

// revivalHeader bounds what a revival allocates besides the stream's
// chunks: the key and summary, the hasher, the decoder that validates
// the stream, the Trace and its chunk list.
const revivalHeader = 8 << 10

// TestSpillRevivalAllocations: a disk revival reads the stream straight
// into chunks — one copy, no io.ReadAll — so it allocates the stream
// plus at most one chunk and the header. TotalAlloc is process-wide, so
// the bound holds the least of three revivals of the same file: other
// goroutines' allocations inflate a reading, a real regression
// inflates every one.
func TestSpillRevivalAllocations(t *testing.T) {
	tr, refs := bigTrace(t)
	dir := t.TempDir()
	s := New(0, dir)
	if _, _, err := s.DoOutcome(key(1), func() (*Trace, error) { return tr, nil }); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(s.spillPath(key(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got *Trace
	n := ^uint64(0)
	for range 3 {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		n = min(n, allocated(func() {
			if got, err = readSpillFile(f, key(1)); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("revival: %d B stream, %d B allocated", tr.EncodedLen(), n)
	if limit := uint64(tr.EncodedLen() + chunkSize + revivalHeader); n > limit {
		t.Errorf("reviving a %d B stream allocated %d B, want <= %d", tr.EncodedLen(), n, limit)
	}
	if got.EncodedLen() != tr.EncodedLen() || got.Summary.BusEvents != tr.Summary.BusEvents {
		t.Fatalf("revived %d B / %d events, spilled %d B / %d", got.EncodedLen(), got.Summary.BusEvents, tr.EncodedLen(), tr.Summary.BusEvents)
	}
	if p, _ := got.Player(); !slices.Equal(drain(t, p), refs) {
		t.Error("the revived stream does not decode to the recorded events")
	}
}

// TestSpillBytesIgnoreChunking: the spill format is the stream's, not
// its chunking's — a chunked trace spills byte for byte what the same
// stream held as one chunk spills (so files written before chunking
// revive after it, and back), and either file revives to the stream.
func TestSpillBytesIgnoreChunking(t *testing.T) {
	chunked, refs := bigTrace(t)
	whole := NewTrace(chunked.Summary, chunked.Encoded())
	var a, b bytes.Buffer
	if err := writeSpillFile(&a, key(2), chunked); err != nil {
		t.Fatal(err)
	}
	if err := writeSpillFile(&b, key(2), whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("a chunked trace spills different bytes than the same stream in one chunk")
	}
	got, err := readSpillFile(bytes.NewReader(b.Bytes()), key(2))
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := got.Player(); !slices.Equal(drain(t, p), refs) {
		t.Error("the one-chunk spill does not revive to the recorded events")
	}
	if p, _ := whole.Player(); !slices.Equal(drain(t, p), refs) {
		t.Error("the one-chunk trace does not decode to the recorded events")
	}
	if filepath.Ext(New(0, t.TempDir()).spillPath(key(2))) != ".ctrace" {
		t.Error("spill file naming changed")
	}
}

// drain decodes a player to the end through NextBatch.
func drain(t *testing.T, p *trace.StreamPlayer) []trace.Ref {
	t.Helper()
	var out []trace.Ref
	buf := make([]trace.Ref, 4096)
	for n := p.NextBatch(buf); n > 0; n = p.NextBatch(buf) {
		out = append(out, buf[:n]...)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDoPanicReleasesKey: a leader whose execute panics must not strand
// the key. A waiter collapsed onto it executes its own execute and gets
// a trace; a later call finds the key usable (a hit).
func TestDoPanicReleasesKey(t *testing.T) {
	s := New(0, "")
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		s.DoOutcome(key(3), func() (*Trace, error) {
			close(entered)
			<-release
			panic("emulator fail-loud")
		})
	}()
	<-entered
	type result struct {
		tr  *Trace
		out Outcome
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		tr, out, err := s.DoOutcome(key(3), func() (*Trace, error) { return fakeTrace(3, 40), nil })
		waiter <- result{tr, out, err}
	}()
	for s.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-leader; r == nil {
		t.Fatal("the leader's panic was swallowed")
	}
	w := <-waiter
	if w.err != nil || w.out != OutcomeMiss || w.tr.Summary.BusEvents != 40 {
		t.Fatalf("waiter: outcome %v, err %v; want its own execution's trace", w.out, w.err)
	}
	tr, out, err := s.DoOutcome(key(3), func() (*Trace, error) {
		t.Error("a third call executed again")
		return nil, nil
	})
	if err != nil || out != OutcomeHit || tr != w.tr {
		t.Errorf("third call: outcome %v, err %v; want a hit on the waiter's trace", out, err)
	}
}
