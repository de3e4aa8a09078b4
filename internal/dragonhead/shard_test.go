package dragonhead

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/telemetry"
	"cmpmem/internal/trace"
)

// shardTrafficEmu drives one emulator through a stream with every AF
// pathology: window toggles, straddlers, control messages as raw
// transactions, CB boundaries, retired-instruction updates.
func shardTraffic(e *Emulator, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	cycles := uint64(0)
	for i := 0; i < 30000; i++ {
		size := uint8(1 << rng.Intn(4))
		if rng.Intn(64) == 0 {
			size = 255 // straddler
		}
		e.OnRef(trace.Ref{
			Addr: mem.Addr(0x4000_0000 + rng.Intn(1<<21)),
			Size: size,
			Kind: mem.Kind(rng.Intn(2)),
			Core: uint8(rng.Intn(8)),
		})
		switch {
		case i%500 == 250:
			cycles += uint64(200 + rng.Intn(800))
			e.OnMsg(fsb.Message{Kind: fsb.MsgCycles, Value: cycles})
		case i%997 == 0:
			e.OnMsg(fsb.Message{Kind: fsb.MsgInstRetired, Core: uint8(i % 4), Value: uint64(i * 100)})
		case i%1777 == 0:
			e.OnMsg(fsb.Message{Kind: fsb.MsgStop})
		case i%1777 == 5:
			e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
		}
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgStop})
	e.Finalize()
}

// TestShardedEquivalence: every published number — Stats (including
// per-core arrays), CB Samples, MPKI, the AF drop count — must be
// bit-identical across shard counts, per the bank-interleave argument
// in shard.go.
func TestShardedEquivalence(t *testing.T) {
	cfg := Config{LLC: llc(1 << 19), Banks: 8, ClockHz: 1e6}
	serial := newEmu(t, cfg)
	shardTraffic(serial, 7)
	for _, shards := range []int{2, 4, 8} {
		scfg := cfg
		scfg.Shards = shards
		scfg.Trace = telemetry.StartSpan("run")
		sharded := newEmu(t, scfg)
		if sharded.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", sharded.Shards(), shards)
		}
		shardTraffic(sharded, 7)
		// A traced sharded run attaches its workers' busy time post-hoc.
		if g := scfg.Trace.Find("shards"); g == nil || len(g.Children) != shards {
			t.Errorf("shards=%d: traced run attached no per-shard spans: %+v", shards, g)
		}
		if !reflect.DeepEqual(serial.Stats(), sharded.Stats()) {
			t.Errorf("shards=%d: Stats diverge", shards)
		}
		if !reflect.DeepEqual(serial.Samples(), sharded.Samples()) {
			t.Errorf("shards=%d: Samples diverge (%d vs %d)",
				shards, len(serial.Samples()), len(sharded.Samples()))
		}
		if serial.MPKI() != sharded.MPKI() {
			t.Errorf("shards=%d: MPKI %v vs %v", shards, serial.MPKI(), sharded.MPKI())
		}
		if serial.Ignored() != sharded.Ignored() {
			t.Errorf("shards=%d: Ignored %d vs %d", shards, serial.Ignored(), sharded.Ignored())
		}
		for b := 0; b < serial.Banks(); b++ {
			if serial.BankStats(b) != sharded.BankStats(b) {
				t.Errorf("shards=%d: bank %d stats diverge", shards, b)
			}
		}
	}
}

// TestShardedViaBatchedBus: sharding composes with fanned bus delivery
// (the sharder's producer is then a bus worker) and bus.Close seals
// everything through Finalize.
func TestShardedViaBatchedBus(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	stream := []trace.Ref{fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart})}
	for i := 0; i < 20000; i++ {
		stream = append(stream, trace.Ref{Addr: mem.Addr(0x4000_0000 + i*192), Size: 8, Kind: mem.Load, Core: uint8(i % 4)})
		if i%1000 == 999 {
			stream = append(stream, fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCycles, Value: uint64(i)}))
		}
	}
	stream = append(stream,
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 123_000}),
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStop}))

	cfg := Config{LLC: llc(1 << 18), ClockHz: 1e6}
	scfg := cfg
	scfg.Shards = 4
	serial, sharded := newEmu(t, cfg), newEmu(t, scfg)
	bus := fsb.NewBatchedBus(64)
	bus.Attach(serial)
	bus.Attach(sharded)
	for len(stream) > 0 {
		n := min(777, len(stream))
		bus.Refs(stream[:n])
		stream = stream[n:]
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	if serial.Stats() != sharded.Stats() {
		t.Error("stats diverge through the fanned bus")
	}
	if !reflect.DeepEqual(serial.Samples(), sharded.Samples()) {
		t.Error("samples diverge through the fanned bus")
	}
}

// TestShardConfigNormalization pins the option semantics: non-power-of-
// two rejected, counts above Banks clamped, private organization forces
// serial.
func TestShardConfigNormalization(t *testing.T) {
	if _, err := New(Config{LLC: llc(1 << 20), Shards: 3}); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	e := newEmu(t, Config{LLC: llc(1 << 20), Banks: 4, Shards: 16})
	if e.Shards() != 4 {
		t.Errorf("shards not clamped to banks: %d", e.Shards())
	}
	e = newEmu(t, Config{LLC: llc(1 << 20), PrivatePerCore: 4, Shards: 8})
	if e.Shards() != 1 {
		t.Errorf("private organization did not force serial: %d shards", e.Shards())
	}
}

// TestShardedReadsPanicUntilFinalize: once events are in flight to the
// shard workers, every counter read must fail loudly until Finalize.
func TestShardedReadsPanicUntilFinalize(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20), Shards: 4})
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	e.OnRef(trace.Ref{Addr: 0x4000_0000, Size: 8, Kind: mem.Load})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Stats did not panic while shard workers own the banks")
			}
		}()
		e.Stats()
	}()
	e.Finalize()
	if e.Stats().Accesses != 1 {
		t.Error("access lost through the sharded path")
	}
}
