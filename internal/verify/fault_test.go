package verify

import (
	"testing"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
)

// makeTrace records a small deterministic stream and seals it.
func makeTrace(t *testing.T, n int) *tracestore.Trace {
	t.Helper()
	rec := tracestore.NewRecorder()
	rec.Add(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart}))
	g := newRefGen(5)
	for _, r := range g.refs(n) {
		rec.Add(r)
	}
	rec.Add(fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStop}))
	tr, err := rec.Finish(tracestore.Summary{Workload: "synthetic", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// digestTrace replays a trace through a StreamDigest.
func digestTrace(t *testing.T, tr *tracestore.Trace) (sum, events uint64) {
	t.Helper()
	p, err := tr.Player()
	if err != nil {
		t.Fatal(err)
	}
	d := fsb.NewStreamDigest()
	for r, ok := p.Next(); ok; r, ok = p.Next() {
		d.OnRef(r)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return d.Sum(), d.Events()
}

// storeKey is the fixed key the fault tests memoize under.
var storeKey = tracestore.Key{Workload: "synthetic", Seed: 1, Scale: 0.01, Threads: 2, Quantum: 100}

// executeCounter wraps a trace as a Store execute function, counting
// invocations.
func executeCounter(tr *tracestore.Trace, n *int) func() (*tracestore.Trace, error) {
	return func() (*tracestore.Trace, error) {
		*n++
		return tr, nil
	}
}

// TestSpillRoundTripThroughFaultFS checks the no-fault path end to end
// on the injectable filesystem: execute once, spill, and serve the
// second store from disk bit-identically.
func TestSpillRoundTripThroughFaultFS(t *testing.T) {
	ffs := NewFaultFS()
	tr := makeTrace(t, 500)
	wantSum, wantEvents := digestTrace(t, tr)

	execs := 0
	s1 := tracestore.New(0, "spill")
	s1.SetFS(ffs)
	if _, _, err := s1.DoOutcome(storeKey, executeCounter(tr, &execs)); err != nil {
		t.Fatal(err)
	}
	if execs != 1 {
		t.Fatalf("first store executed %d times, want 1", execs)
	}
	if len(ffs.Files()) == 0 {
		t.Fatal("no spill file written")
	}

	// A fresh store sharing the filesystem must hit disk, not execute.
	s2 := tracestore.New(0, "spill")
	s2.SetFS(ffs)
	got, _, err := s2.DoOutcome(storeKey, executeCounter(tr, &execs))
	if err != nil {
		t.Fatal(err)
	}
	if execs != 1 {
		t.Fatalf("disk hit still executed (%d executions)", execs)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
	gotSum, gotEvents := digestTrace(t, got)
	if gotSum != wantSum || gotEvents != wantEvents {
		t.Fatalf("disk-loaded stream digest %#x/%d != live %#x/%d", gotSum, gotEvents, wantSum, wantEvents)
	}
}

// TestSpillWriteFaultsDegradeGracefully checks that every write-side
// fault leaves the store fully functional: DoOutcome succeeds, the
// result is correct, and the only cost is that the next process
// re-executes.
func TestSpillWriteFaultsDegradeGracefully(t *testing.T) {
	tr := makeTrace(t, 200)
	wantSum, _ := digestTrace(t, tr)

	arm := []struct {
		name string
		set  func(*FaultFS)
	}{
		{"mkdir", func(f *FaultFS) { f.FailMkdir = true }},
		{"create", func(f *FaultFS) { f.FailCreate = true }},
		{"write", func(f *FaultFS) { f.FailWrite = true }},
		{"rename", func(f *FaultFS) { f.FailRename = true }},
	}
	for _, tc := range arm {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS()
			tc.set(ffs)
			execs := 0
			s := tracestore.New(0, "spill")
			s.SetFS(ffs)
			got, _, err := s.DoOutcome(storeKey, executeCounter(tr, &execs))
			if err != nil {
				t.Fatalf("write fault leaked into DoOutcome: %v", err)
			}
			if gotSum, _ := digestTrace(t, got); gotSum != wantSum {
				t.Fatalf("write fault corrupted the returned stream")
			}
			if _, faults := ffs.Counts(); faults == 0 {
				t.Fatal("fault switch never fired — the test exercised nothing")
			}
			// The failed spill must not leave a loadable file behind.
			execs2 := 0
			s2 := tracestore.New(0, "spill")
			s2.SetFS(ffs)
			if _, _, err := s2.DoOutcome(storeKey, executeCounter(tr, &execs2)); err != nil {
				t.Fatal(err)
			}
			if execs2 != 1 {
				t.Fatalf("second store executed %d times, want 1 (re-execute after failed spill)", execs2)
			}
		})
	}
}

// TestSpillReadFaultsDegradeGracefully injects open failures and
// single-byte corruption at every interesting offset of a real spill
// file, and requires the store to re-execute — never to replay a
// corrupted stream.
func TestSpillReadFaultsDegradeGracefully(t *testing.T) {
	tr := makeTrace(t, 300)
	wantSum, _ := digestTrace(t, tr)

	// Build one good spill file to corrupt.
	seed := NewFaultFS()
	s0 := tracestore.New(0, "spill")
	s0.SetFS(seed)
	execs0 := 0
	if _, _, err := s0.DoOutcome(storeKey, executeCounter(tr, &execs0)); err != nil {
		t.Fatal(err)
	}
	files := seed.Files()
	if len(files) != 1 {
		t.Fatalf("expected 1 spill file, have %v", files)
	}

	t.Run("open-failure", func(t *testing.T) {
		ffs := NewFaultFS()
		ffs.FailOpen = true
		execs := 0
		s := tracestore.New(0, "spill")
		s.SetFS(ffs)
		if _, _, err := s.DoOutcome(storeKey, executeCounter(tr, &execs)); err != nil {
			t.Fatal(err)
		}
		if execs != 1 {
			t.Fatalf("open fault: executed %d times, want 1", execs)
		}
	})

	// Corrupt one byte at a sweep of offsets spanning magic, header,
	// checksum (its CRC-32C half at 9, its CRC-32/IEEE half at 12 and
	// 15), and stream body. Every case must re-execute (the spill is
	// rejected) and the served stream must digest identically.
	spillLen := func() int {
		rc, err := seed.Open(files[0])
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		n := 0
		buf := make([]byte, 4096)
		for {
			k, err := rc.Read(buf)
			n += k
			if err != nil {
				break
			}
		}
		return n
	}()
	offsets := []int{0, 4, 9, 12, 15, 40, 90, 100, spillLen / 2, spillLen - 1}
	for _, off := range offsets {
		if off < 0 || off >= spillLen {
			continue
		}
		ffs := NewFaultFS()
		// Share the good file, then arm corruption on read.
		rc, _ := seed.Open(files[0])
		data := make([]byte, 0, spillLen)
		buf := make([]byte, 4096)
		for {
			k, err := rc.Read(buf)
			data = append(data, buf[:k]...)
			if err != nil {
				break
			}
		}
		rc.Close()
		f, err := ffs.CreateTemp("spill", "seed")
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data)
		f.Close()
		if err := ffs.Rename(f.Name(), files[0]); err != nil {
			t.Fatal(err)
		}
		ffs.CorruptRead = true
		ffs.CorruptOff = off
		ffs.CorruptMask = 0x40

		execs := 0
		s := tracestore.New(0, "spill")
		s.SetFS(ffs)
		got, _, err := s.DoOutcome(storeKey, executeCounter(tr, &execs))
		if err != nil {
			t.Fatalf("offset %d: corruption leaked into DoOutcome: %v", off, err)
		}
		if execs != 1 {
			t.Fatalf("offset %d: corrupted spill replayed instead of re-executing", off)
		}
		if gotSum, _ := digestTrace(t, got); gotSum != wantSum {
			t.Fatalf("offset %d: served stream corrupted", off)
		}
	}
}

// TestCorruptTraceFailsLoudly corrupts in-memory trace streams across the
// whole byte range and requires the decoder to either error or produce
// a stream that differs from the original — never a silent bit-exact
// lie. (Detecting the difference is the caller's job via digests or the
// spill checksum; this test confirms the information to detect it
// exists.)
func TestCorruptTraceFailsLoudly(t *testing.T) {
	tr := makeTrace(t, 100)
	enc := tr.Encoded()
	origSum, origEvents := digestTrace(t, tr)

	for off := 0; off < len(enc); off += 7 {
		bad := tracestore.NewTrace(tr.Summary, Corrupt(enc, off, 0x81))
		p, err := bad.Player()
		if err != nil {
			continue // header corruption rejected at construction: loud.
		}
		d := fsb.NewStreamDigest()
		for r, ok := p.Next(); ok; r, ok = p.Next() {
			d.OnRef(r)
		}
		if p.Err() != nil {
			continue // decode error: loud.
		}
		if d.Sum() == origSum && d.Events() == origEvents {
			t.Fatalf("offset %d: corrupted stream decoded bit-identically to the original", off)
		}
	}
}

// TestDropSnooperDetection checks a lossy delivery path is always
// distinguishable: the digest of a dropped stream differs, and the
// event count conservation check fails by exactly the dropped count.
func TestDropSnooperDetection(t *testing.T) {
	refs := newRefGen(3).refs(1000)

	clean := fsb.NewStreamDigest()
	deliver(refs, clean)

	inner := fsb.NewStreamDigest()
	drop := &DropSnooper{Inner: inner, DropEvery: 97}
	deliver(refs, drop)

	if drop.Dropped() == 0 {
		t.Fatal("DropSnooper dropped nothing")
	}
	if inner.Sum() == clean.Sum() {
		t.Fatal("digest failed to detect dropped events")
	}
	if err := Conserve("delivered events", inner.Events()+drop.Dropped(), clean.Events()); err != nil {
		t.Fatal(err)
	}
	// DropEvery 0 must be a transparent passthrough.
	inner2 := fsb.NewStreamDigest()
	deliver(refs, &DropSnooper{Inner: inner2})
	if inner2.Sum() != clean.Sum() || inner2.Events() != clean.Events() {
		t.Fatal("DropEvery=0 is not a transparent passthrough")
	}
}

// TestDropSnooperForwardsLifecycle checks Finalize reaches the inner
// snooper through the fault wrapper.
func TestDropSnooperForwardsLifecycle(t *testing.T) {
	rec := &lifecycleRecorder{}
	d := &DropSnooper{Inner: rec, DropEvery: 2}
	d.OnRef(trace.Ref{Addr: 1, Size: 1, Kind: mem.Load})
	d.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	d.Finalize()
	if !rec.finalized {
		t.Fatal("Finalize not forwarded")
	}
	if rec.events != 1 {
		t.Fatalf("inner saw %d events, want 1 (second dropped)", rec.events)
	}
}

type lifecycleRecorder struct {
	events    int
	finalized bool
}

func (l *lifecycleRecorder) OnRef(trace.Ref)   { l.events++ }
func (l *lifecycleRecorder) OnMsg(fsb.Message) { l.events++ }
func (l *lifecycleRecorder) Finalize()         { l.finalized = true }
