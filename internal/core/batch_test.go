package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/oracle"
	"cmpmem/internal/sampling"
	"cmpmem/internal/trace"
	"cmpmem/internal/tracestore"
)

// Batch == per-event, everywhere a batch can be cut: every
// fsb.BatchSnooper of the pipeline is fed one stream twice — event by
// event through OnRef/OnMsg, the reference, and through OnBatch in
// batches cut at arbitrary places — and must end in the same state.

// batchSubject is one implementer under test: a fresh snooper and the
// view of its state the two feeds must agree on.
type batchSubject struct {
	name string
	new  func(t *testing.T) (fsb.BatchSnooper, func() any)
}

// emuView is everything an emulator publishes.
type emuView struct {
	Stats        cache.Stats
	Banks        []cache.Stats
	Samples      []dragonhead.Sample
	Ignored      uint64
	Instructions uint64
	MPKI         float64
}

func emulatorSubject(name string, cfg dragonhead.Config) batchSubject {
	// A 1 kHz CB against cycle counts in the thousands: samples happen.
	cfg.ClockHz, cfg.SamplePeriod = 1e6, 1e-3
	return batchSubject{name, func(t *testing.T) (fsb.BatchSnooper, func() any) {
		e, err := dragonhead.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e, func() any {
			e.Finalize()
			v := emuView{Stats: e.Stats(), Samples: e.Samples(), Ignored: e.Ignored(), Instructions: e.Instructions(), MPKI: e.MPKI()}
			for b := 0; b < e.Banks(); b++ {
				v.Banks = append(v.Banks, e.BankStats(b))
			}
			return v
		}
	}}
}

var batchSubjects = []batchSubject{
	emulatorSubject("emulator/shared", dragonhead.Config{LLC: cache.Config{Name: "s", Size: 16 << 10, LineSize: 64, Assoc: 4}, Banks: 4}),
	emulatorSubject("emulator/random", dragonhead.Config{LLC: cache.Config{Name: "r", Size: 8 << 10, LineSize: 64, Assoc: 8, Repl: cache.Random}, Banks: 2}),
	emulatorSubject("emulator/private", dragonhead.Config{LLC: cache.Config{Name: "p", Size: 16 << 10, LineSize: 64, Assoc: 4}, PrivatePerCore: 4}),
	emulatorSubject("emulator/sectored", dragonhead.Config{LLC: cache.Config{Name: "x", Size: 16 << 10, LineSize: 128, Assoc: 4, SectorSize: 32}, Banks: 2}),
	emulatorSubject("emulator/sharded", dragonhead.Config{LLC: cache.Config{Name: "h", Size: 16 << 10, LineSize: 64, Assoc: 4}, Banks: 4, Shards: 2}),
	emulatorSubject("emulator/one-bank", dragonhead.Config{LLC: cache.Config{Name: "1", Size: 8 << 10, LineSize: 256, Assoc: 4}, Banks: 1}),
	emulatorSubject("emulator/one-bank-sectored", dragonhead.Config{LLC: cache.Config{Name: "1x", Size: 8 << 10, LineSize: 256, Assoc: 2, SectorSize: 64, Repl: cache.FIFO}, Banks: 1}),
	{"engine", func(t *testing.T) (fsb.BatchSnooper, func() any) {
		eng, err := oracle.New(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.EnableSampling(1e6, 1e-3); err != nil {
			t.Fatal(err)
		}
		var tracked []*oracle.Tracked
		for _, c := range []cache.Config{
			{Name: "a", Size: 4 << 10, LineSize: 64, Assoc: 2},
			{Name: "b", Size: 16 << 10, LineSize: 64, Assoc: 8},
			{Name: "c", Size: 8 << 10, LineSize: 64, Assoc: 0},
		} {
			tr, err := eng.Track(c)
			if err != nil {
				t.Fatal(err)
			}
			tracked = append(tracked, tr)
		}
		return eng, func() any {
			v := []any{eng.Accesses(), eng.Ignored(), eng.Instructions()}
			for _, tr := range tracked {
				v = append(v, tr.Stats(), tr.Samples(), tr.MPKI())
			}
			return v
		}
	}},
	{"fingerprinter", func(t *testing.T) (fsb.BatchSnooper, func() any) {
		fp := sampling.NewFingerprinter(sampling.Params{IntervalRefs: 16, MaxClusters: 2, Warmup: 1, Seed: 1}, 0)
		return fp, func() any {
			plan, err := fp.Build()
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
	}},
	{"recorder", func(t *testing.T) (fsb.BatchSnooper, func() any) {
		rec := &busRecorder{rec: tracestore.NewRecorder()}
		return rec, func() any {
			tr, err := rec.rec.Finish(tracestore.Summary{})
			if err != nil {
				t.Fatal(err)
			}
			return [2]any{tr.Summary, bytes.Clone(tr.Encoded())}
		}
	}},
}

// fuzzStream decodes fuzz bytes into a bus-event stream, three bytes an
// event: control messages of every kind (and of no kind) at arbitrary
// positions, loads and stores from six cores to a 32 KB range, sizes
// from zero to straddlers over several lines, and — whenever a stop
// message precedes them — out-of-window noise.
func fuzzStream(data []byte) []trace.Ref {
	var stream []trace.Ref
	var cycles, inst uint64
	for i := 0; i+2 < len(data); i += 3 {
		op, x, y := data[i], data[i+1], data[i+2]
		if op%8 == 0 {
			m := fsb.Message{Kind: fsb.MsgKind(x % 7), Core: y % 6}
			switch m.Kind {
			case fsb.MsgInstRetired:
				inst += uint64(y)
				m.Value = inst
			case fsb.MsgCycles:
				cycles += uint64(y) * 40
				m.Value = cycles
			}
			stream = append(stream, fsb.EncodeMessage(m))
			continue
		}
		stream = append(stream, trace.Ref{
			Addr: mem.Addr(0x10_0000 + (uint64(x%16)<<8|uint64(y))*8 + uint64(op>>3&7)),
			Size: []uint8{0, 1, 4, 8, 16, 64, 200, 255}[op>>5],
			Kind: mem.Kind(op >> 4 & 1),
			Core: x % 6,
		})
	}
	return stream
}

// batchCuts picks the places to cut the stream: random ones, and with
// even odds directly before and directly after every message, so some
// batches begin with a message, some end with one, and some are one
// event long.
func batchCuts(stream []trace.Ref, rng *rand.Rand) []int {
	cuts := map[int]bool{len(stream): true}
	for i := 0; i < len(stream); i += 1 + rng.Intn(1+rng.Intn(40)) {
		cuts[i] = true
	}
	for i, r := range stream {
		if fsb.IsMessage(r) {
			if rng.Intn(2) == 0 {
				cuts[i] = true
			}
			if rng.Intn(2) == 0 {
				cuts[i+1] = true
			}
		}
	}
	out := make([]int, 0, len(cuts))
	for c := range cuts {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func checkBatchEqualsPerEvent(t *testing.T, stream []trace.Ref, seed int64) {
	t.Helper()
	cuts := batchCuts(stream, rand.New(rand.NewSource(seed)))
	for _, sub := range batchSubjects {
		perEvent, want := sub.new(t)
		for _, r := range stream {
			if m, ok := fsb.DecodeMessage(r); ok {
				perEvent.OnMsg(m)
			} else {
				perEvent.OnRef(r)
			}
		}
		batched, got := sub.new(t)
		prev := 0
		for _, c := range cuts {
			if c > prev {
				batched.OnBatch(stream[prev:c])
				prev = c
			}
		}
		if w, g := want(), got(); !reflect.DeepEqual(w, g) {
			t.Errorf("%s: OnBatch diverges from OnRef/OnMsg over %d events in %d batches\nper-event: %+v\nbatched:   %+v", sub.name, len(stream), len(cuts), w, g)
		}
	}
}

// batchSeedStream is a stream with the window opening and closing, CB
// boundaries and every pathology of fuzzStream, long enough to evict.
func batchSeedStream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 3*n)
	rng.Read(data)
	// Open the window first so most of the stream counts.
	copy(data, []byte{0, byte(fsb.MsgStart), 0})
	return data
}

func TestBatchEqualsPerEvent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		checkBatchEqualsPerEvent(t, fuzzStream(batchSeedStream(seed, 6000)), seed)
	}
	// The degenerate cuts: nothing, one event, one message.
	checkBatchEqualsPerEvent(t, nil, 1)
	checkBatchEqualsPerEvent(t, fuzzStream([]byte{9, 1, 2}), 1)
	checkBatchEqualsPerEvent(t, fuzzStream([]byte{0, byte(fsb.MsgStart), 0}), 1)
}

func FuzzBatchEqualsPerEvent(f *testing.F) {
	f.Add(batchSeedStream(1, 200), int64(1))
	f.Add([]byte{0, 1, 0, 9, 1, 2, 0, 2, 0, 9, 1, 2, 0, 1, 0, 0xE9, 0xFF, 0xFF}, int64(2))
	f.Add([]byte{0, 1, 0, 0, 5, 200, 9, 0, 0, 0, 5, 200, 0, 4, 7, 0, 0, 0}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 3*4096 {
			data = data[:3*4096]
		}
		checkBatchEqualsPerEvent(t, fuzzStream(data), seed)
	})
}
