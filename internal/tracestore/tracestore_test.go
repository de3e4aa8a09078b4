package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/sampling"
	"cmpmem/internal/trace"
)

// fakeTrace builds a deterministic stream keyed off n.
func fakeTrace(n int, events int) *Trace {
	rec := NewRecorder()
	for i := 0; i < events; i++ {
		rec.Add(trace.Ref{
			Addr: mem.Addr(0x1000*n + 8*i),
			Core: uint8(i % 4),
			Size: 8,
			Kind: mem.Kind(i % 2),
		})
	}
	tr, err := rec.Finish(Summary{
		Workload:     fmt.Sprintf("W%d", n),
		Threads:      4,
		Instructions: uint64(events * 3),
		Loads:        uint64(events / 2),
		Stores:       uint64(events - events/2),
	})
	if err != nil {
		panic(err)
	}
	return tr
}

// decodeAll replays the memoized stream back into a slice for
// comparisons.
func decodeAll(t testing.TB, tr *Trace) []trace.Ref {
	t.Helper()
	p, err := tr.Player()
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]trace.Ref, 0, tr.Summary.BusEvents)
	for r, ok := p.Next(); ok; r, ok = p.Next() {
		refs = append(refs, r)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return refs
}

func key(n int) Key {
	return Key{Workload: fmt.Sprintf("W%d", n), Seed: 1, Scale: 0.25, Threads: 4, Quantum: 50000}
}

func TestDoMemoizes(t *testing.T) {
	s := New(0, "")
	var calls int32
	exec := func() (*Trace, error) {
		atomic.AddInt32(&calls, 1)
		return fakeTrace(1, 100), nil
	}
	a, _, err := s.DoOutcome(key(1), exec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.DoOutcome(key(1), exec)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("execute ran %d times, want 1", calls)
	}
	if a != b {
		t.Error("second DoOutcome returned a different Trace pointer")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestDoSingleFlight(t *testing.T) {
	s := New(0, "")
	var calls int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr, _, err := s.DoOutcome(key(7), func() (*Trace, error) {
				atomic.AddInt32(&calls, 1)
				return fakeTrace(7, 1000), nil
			})
			if err != nil || tr.Summary.BusEvents != 1000 {
				t.Errorf("Do: %v / %d events", err, tr.Summary.BusEvents)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls != 1 {
		t.Errorf("execute ran %d times under concurrency, want 1", calls)
	}
}

func TestDoPropagatesError(t *testing.T) {
	s := New(0, "")
	boom := errors.New("boom")
	if _, _, err := s.DoOutcome(key(2), func() (*Trace, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Errors are not memoized: the next DoOutcome retries.
	tr, _, err := s.DoOutcome(key(2), func() (*Trace, error) { return fakeTrace(2, 10), nil })
	if err != nil || tr == nil {
		t.Fatalf("retry after error failed: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget fits ~2 of the 100-event traces (size measured, not
	// hard-coded, so codec tweaks don't invalidate the test).
	unit := fakeTrace(0, 100).SizeBytes()
	budget := unit*2 + unit/2
	s := New(budget, "")
	for n := 0; n < 4; n++ {
		n := n
		if _, _, err := s.DoOutcome(key(n), func() (*Trace, error) { return fakeTrace(n, 100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions despite exceeding the budget")
	}
	if st.Bytes > budget {
		t.Errorf("resident bytes %d exceed budget %d", st.Bytes, budget)
	}
	// Most recent key must still be resident.
	var calls int32
	if _, _, err := s.DoOutcome(key(3), func() (*Trace, error) {
		atomic.AddInt32(&calls, 1)
		return fakeTrace(3, 100), nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Error("MRU entry was evicted")
	}
}

func TestDiskSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := New(0, dir)
	want := fakeTrace(5, 500)
	if _, _, err := s1.DoOutcome(key(5), func() (*Trace, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ctrace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (err %v), want exactly 1", files, err)
	}

	// A fresh store (fresh process, conceptually) must load from disk
	// without executing.
	s2 := New(0, dir)
	got, _, err := s2.DoOutcome(key(5), func() (*Trace, error) {
		t.Error("execute ran despite a valid spill file")
		return fakeTrace(5, 500), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != want.Summary {
		t.Errorf("summary diverged through spill: got %+v want %+v", got.Summary, want.Summary)
	}
	gotRefs, wantRefs := decodeAll(t, got), decodeAll(t, want)
	if len(gotRefs) != len(wantRefs) {
		t.Fatalf("event count diverged: %d vs %d", len(gotRefs), len(wantRefs))
	}
	for i := range wantRefs {
		if gotRefs[i] != wantRefs[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, gotRefs[i], wantRefs[i])
		}
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 disk hit", st)
	}
}

// TestCorruptSpillRecomputes: a spill that cannot be revived degrades to
// a recompute — whether the file is garbage or a well-formed, correctly
// checksummed spill whose stream carries a header the codec no longer
// reads (the retired v1 and v2 layouts: to the decoder, one more bad
// magic) — and the spill that recompute writes revives from disk.
func TestCorruptSpillRecomputes(t *testing.T) {
	v1 := append([]byte("CMPT\x01\x00\x00\x00"), make([]byte, 50*16)...)
	// 50 well-formed v2 records: same core, 8 bytes, varint delta +8.
	v2 := append([]byte("CMPT\x02\x00\x00\x00"), bytes.Repeat([]byte{0x06, 0x10}, 50)...)
	spill := func(stream []byte) []byte {
		var b bytes.Buffer
		if err := writeSpillFile(&b, key(9), NewTrace(fakeTrace(9, 50).Summary, stream)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for name, content := range map[string][]byte{
		"garbage":          []byte("corrupted beyond repair"),
		"v1 stream inside": spill(v1),
		"v2 stream inside": spill(v2),
	} {
		dir := t.TempDir()
		s := New(0, dir)
		if _, _, err := s.DoOutcome(key(9), func() (*Trace, error) { return fakeTrace(9, 50), nil }); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.ctrace"))
		if len(files) != 1 {
			t.Fatalf("%s: no spill written", name)
		}
		if err := os.WriteFile(files[0], content, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, want := range []Outcome{OutcomeMiss, OutcomeDisk} {
			var calls int32
			tr, outcome, err := New(0, dir).DoOutcome(key(9), func() (*Trace, error) {
				atomic.AddInt32(&calls, 1)
				return fakeTrace(9, 50), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if outcome != want || calls != int32(1-i) {
				t.Errorf("%s, store %d: outcome %v after %d executions, want %v after %d", name, i, outcome, calls, want, 1-i)
			}
			if got := decodeAll(t, tr); len(got) != 50 {
				t.Errorf("%s, store %d: stream has %d records, want 50", name, i, len(got))
			}
		}
	}
}

// TestSpillHeadVersions: a version 3 spill heads its payload with the
// CRC-32C of it in the low half of the checksum and its CRC-32/IEEE in
// the high half. A spill in the version 2 layout (magic byte 2, FNV-1a-64
// of the payload) is recomputed once, and the spill that recompute
// writes revives from disk.
func TestSpillHeadVersions(t *testing.T) {
	var spill bytes.Buffer
	if err := writeSpillFile(&spill, key(4), fakeTrace(4, 300)); err != nil {
		t.Fatal(err)
	}
	v2 := spill.Bytes()
	payload := v2[16:]
	want := uint64(crc32.ChecksumIEEE(payload))<<32 | uint64(crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if v2[4] != 3 || binary.LittleEndian.Uint64(v2[8:16]) != want {
		t.Fatalf("spill head % x, want version 3 and checksum %#x", v2[:16], want)
	}
	v2[4] = 2
	h := fnv.New64a()
	h.Write(payload)
	binary.LittleEndian.PutUint64(v2[8:16], h.Sum64())
	dir := t.TempDir()
	if err := os.WriteFile(New(0, dir).spillPath(key(4)), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Outcome{OutcomeMiss, OutcomeDisk} {
		var calls int32
		tr, outcome, err := New(0, dir).DoOutcome(key(4), func() (*Trace, error) {
			atomic.AddInt32(&calls, 1)
			return fakeTrace(4, 300), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if outcome != want || calls != int32(1-i) {
			t.Errorf("store %d: outcome %v after %d executions, want %v after %d", i, outcome, calls, want, 1-i)
		}
		if got := decodeAll(t, tr); len(got) != 300 {
			t.Errorf("store %d: stream has %d records, want 300", i, len(got))
		}
	}
}

func TestSpillKeyMismatchIsMiss(t *testing.T) {
	// Force two keys onto the same file path by writing one key's file
	// under another key's name; the embedded key echo must reject it.
	dir := t.TempDir()
	s := New(0, dir)
	tr := fakeTrace(1, 20)
	f, err := os.Create(s.spillPath(key(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSpillFile(f, key(1), tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got, ok := s.loadSpill(key(2)); ok || got != nil {
		t.Error("spill with mismatched key echo was accepted")
	}
}

// TestEvictionUnderSingleFlightRace hammers a store whose budget holds
// barely one entry with concurrent callers across several keys, so LRU
// eviction, single-flight coalescing, and re-execution all interleave.
// Every returned trace must still decode to exactly its key's stream —
// eviction may cost re-execution, never correctness. Run under -race.
func TestEvictionUnderSingleFlightRace(t *testing.T) {
	const (
		keys       = 4
		goroutines = 8
		rounds     = 25
	)
	want := make([]*Trace, keys)
	for n := range want {
		want[n] = fakeTrace(n, 50+n)
	}
	// Budget ~1.5 traces: every insert evicts whatever else is resident.
	s := New(want[0].SizeBytes()*3/2, "")

	var execs [keys]atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := (g + r) % keys
				tr, _, err := s.DoOutcome(key(n), func() (*Trace, error) {
					execs[n].Add(1)
					return want[n], nil
				})
				if err != nil {
					errs <- err
					return
				}
				got := decodeAll(t, tr)
				ref := decodeAll(t, want[n])
				if len(got) != len(ref) {
					errs <- fmt.Errorf("key %d: %d records, want %d", n, len(got), len(ref))
					return
				}
				for i := range got {
					if got[i] != ref[i] {
						errs <- fmt.Errorf("key %d record %d: %+v != %+v", n, i, got[i], ref[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions — the budget did not constrain the store and the race went unexercised")
	}
	var total uint64
	for n := range execs {
		e := execs[n].Load()
		if e == 0 {
			t.Errorf("key %d never executed", n)
		}
		total += e
	}
	// Misses == executions (no spill dir: every eviction is a full loss),
	// and every DoOutcome call is accounted as exactly one hit or miss
	// (waiters coalesced into the winner's stat).
	if total != st.Misses {
		t.Errorf("%d executions != %d misses", total, st.Misses)
	}
	if st.Hits+st.Misses > goroutines*rounds {
		t.Errorf("stats overcount: %d hits + %d misses > %d calls", st.Hits, st.Misses, goroutines*rounds)
	}
}

// planBuilder counts builds and returns a distinguishable plan each
// time (the memo never looks inside one).
type planBuilder struct{ builds atomic.Int64 }

func (b *planBuilder) build() (*sampling.Plan, error) {
	return &sampling.Plan{TotalRefs: uint64(b.builds.Add(1))}, nil
}

// TestSamplePlanMemo pins the memo's contract: one build, every later
// call a hit on the same plan, a failed build not kept, and SizeBytes —
// which the store subtracts on eviction — untouched by any of it.
func TestSamplePlanMemo(t *testing.T) {
	tr := fakeTrace(1, 100)
	size := tr.SizeBytes()
	var b planBuilder

	boom := errors.New("boom")
	if _, hit, err := tr.SamplePlan(func() (*sampling.Plan, error) { return nil, boom }); hit || !errors.Is(err, boom) {
		t.Fatalf("failed build: hit=%v err=%v", hit, err)
	}
	first, hit, err := tr.SamplePlan(b.build)
	if err != nil || hit {
		t.Fatalf("after a failed build: hit=%v err=%v, want a fresh build", hit, err)
	}
	for i := 0; i < 3; i++ {
		again, hit, err := tr.SamplePlan(b.build)
		if err != nil || !hit || again != first {
			t.Fatalf("call %d: hit=%v err=%v same=%v, want the memoized plan", i, hit, err, again == first)
		}
	}
	if n := b.builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}

	if tr.SizeBytes() != size {
		t.Errorf("SizeBytes moved from %d to %d with a plan memoized", size, tr.SizeBytes())
	}
}

// TestSamplePlanSingleFlight: concurrent callers share one build, whether they arrive while it runs or after.
func TestSamplePlanSingleFlight(t *testing.T) {
	tr := fakeTrace(1, 100)
	var b planBuilder
	release := make(chan struct{})
	const callers = 8
	var hits atomic.Int64
	plans := make([]*sampling.Plan, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, hit, err := tr.SamplePlan(func() (*sampling.Plan, error) {
				<-release
				return b.build()
			})
			if err != nil {
				t.Error(err)
			}
			if hit {
				hits.Add(1)
			}
			plans[i] = pl
		}()
	}
	close(release)
	wg.Wait()
	if b.builds.Load() != 1 || hits.Load() != callers-1 {
		t.Errorf("%d builds and %d hits for %d callers, want 1 and %d", b.builds.Load(), hits.Load(), callers, callers-1)
	}
	for i, pl := range plans {
		if pl != plans[0] {
			t.Errorf("caller %d got a different plan", i)
		}
	}
}

// TestSamplePlanBuildPanic: a build that panics must not strand the
// callers waiting on it, nor leave a poisoned entry behind.
func TestSamplePlanBuildPanic(t *testing.T) {
	tr := fakeTrace(1, 100)
	entered := make(chan struct{})
	release := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		tr.SamplePlan(func() (*sampling.Plan, error) {
			close(entered)
			<-release
			panic("emulator fail-loud")
		})
	}()
	<-entered
	go func() {
		_, _, err := tr.SamplePlan(func() (*sampling.Plan, error) { return &sampling.Plan{}, nil })
		waiter <- err
	}()
	close(release)
	// The second caller either waited on the panicking build (and is
	// told it failed) or arrived after it was dropped (and built).
	<-waiter
	var b planBuilder
	if _, _, err := tr.SamplePlan(b.build); err != nil {
		t.Errorf("after a panicking build: %v", err)
	}
}
