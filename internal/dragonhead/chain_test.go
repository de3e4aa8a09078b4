package dragonhead

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// chainStream is a hand-built bus stream that exercises every arm of a
// chain: noise before the window and while it is shut, four cores in
// long runs with core-ID and inst-retired messages, each run opening
// with a clean store hint-hit (load X, store X) and a dirty one (store
// X again), then straddlers, zero sizes and random traffic that evicts,
// and cycles messages that each cross several CB boundaries.
func chainStream() []trace.Ref {
	rng := rand.New(rand.NewSource(7))
	msg := func(k fsb.MsgKind, core uint8, v uint64) trace.Ref {
		return fsb.EncodeMessage(fsb.Message{Kind: k, Core: core, Value: v})
	}
	noise := func(out []trace.Ref) []trace.Ref {
		for i := 0; i < 20; i++ {
			out = append(out, trace.Ref{Addr: mem.Addr(rng.Intn(1 << 14)), Size: 8, Kind: mem.Kind(rng.Intn(2))})
		}
		return out
	}
	out := noise(nil)
	out = append(out, msg(fsb.MsgStart, 0, 0))
	var cycles uint64
	inst := make([]uint64, 4)
	for run := 0; run < 48; run++ {
		if run == 24 {
			out = append(out, msg(fsb.MsgStop, 0, 0))
			out = noise(out)
			out = append(out, msg(fsb.MsgStart, 0, 0))
		}
		core := uint8(run % 4)
		out = append(out, msg(fsb.MsgCoreID, core, 0))
		x := mem.Addr(rng.Intn(256) * 64)
		out = append(out,
			trace.Ref{Addr: x, Size: 8, Kind: mem.Load, Core: core},
			trace.Ref{Addr: x + 8, Size: 8, Kind: mem.Store, Core: core},
			trace.Ref{Addr: x + 16, Size: 4, Kind: mem.Store, Core: core},
			trace.Ref{Addr: x + 60, Size: 8, Kind: mem.Load, Core: core}, // straddles
			trace.Ref{Addr: x + 3, Size: 0, Kind: mem.Store, Core: core},
		)
		for i := 0; i < 60; i++ {
			a := mem.Addr(rng.Intn(256)*64 + rng.Intn(64))
			out = append(out, trace.Ref{Addr: a, Size: uint8(1 + rng.Intn(8)), Kind: mem.Kind(rng.Intn(2)), Core: core})
		}
		inst[core] += 1000
		cycles += 250
		out = append(out, msg(fsb.MsgInstRetired, core, inst[core]), msg(fsb.MsgCycles, 0, cycles))
	}
	return out
}

// ladder builds three fresh emulators of one geometry family, smallest
// first, with a CB period of 100 cycles.
func ladder(t *testing.T) []*Emulator {
	var out []*Emulator
	for _, size := range []uint64{1 << 10, 2 << 10, 8 << 10} {
		out = append(out, newEmu(t, Config{
			LLC:   cache.Config{Name: "LLC", Size: size, LineSize: 64, Assoc: 2},
			Banks: 2, ClockHz: 1e6, SamplePeriod: 1e-4,
		}))
	}
	return out
}

// emuView is everything a reader can see of a finalized emulator, by
// name.
func emuView(e *Emulator) map[string]any {
	v := map[string]any{"Stats": e.Stats(), "Samples": e.Samples(), "Ignored": e.Ignored(), "Instructions": e.Instructions()}
	for i := 0; i < e.Banks(); i++ {
		v[fmt.Sprintf("BankStats(%d)", i)] = e.BankStats(i)
	}
	return v
}

// TestChainMatchesEmulatorsAlone: a chain's emulators read exactly as
// the same emulators fed the stream one by one.
func TestChainMatchesEmulatorsAlone(t *testing.T) {
	stream := chainStream()
	chained, alone := ladder(t), ladder(t)
	ch, err := Chain(chained...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stream); i += 37 {
		fsb.Deliver(ch, stream[i:min(i+37, len(stream))])
	}
	ch.(fsb.Finalizer).Finalize()
	for _, e := range alone {
		fsb.Deliver(e, stream)
		e.Finalize()
	}
	for k := range chained {
		if len(alone[k].Samples()) < 100 || alone[k].Stats().Writebacks == 0 {
			t.Fatalf("rung %d: the stream must cross CB boundaries and write back", k)
		}
		got, want := emuView(chained[k]), emuView(alone[k])
		for name := range want {
			if !reflect.DeepEqual(got[name], want[name]) {
				t.Errorf("rung %d: %s diverges from the emulator alone", k, name)
			}
		}
	}
}

// TestChainRejectsIneligible: one row per reason a Chain refuses, each
// error naming the offending config.
func TestChainRejectsIneligible(t *testing.T) {
	llc := func(name string, size uint64, line uint64, assoc int) cache.Config {
		return cache.Config{Name: name, Size: size, LineSize: line, Assoc: assoc}
	}
	base := Config{LLC: llc("small", 4<<10, 64, 4), Banks: 2}
	with := func(f func(*Config)) Config {
		c := Config{LLC: llc("big", 8<<10, 64, 4), Banks: 2}
		f(&c)
		return c
	}
	for _, tc := range []struct {
		want string // in the error, after the config's name
		cfg  Config
	}{
		{"the private organisation", with(func(c *Config) { c.PrivatePerCore = 2 })},
		{"2 bank shards", with(func(c *Config) { c.Shards = 2 })},
		{"FIFO replacement", with(func(c *Config) { c.LLC.Repl = cache.FIFO })},
		{"sectored lines", with(func(c *Config) { c.LLC.SectorSize = 16 })},
		{"associativity 0", with(func(c *Config) { c.LLC.Assoc = 0; c.Banks = 1 })},
		{"associativity 128", with(func(c *Config) { c.LLC.Size = 64 << 10; c.LLC.Assoc = 128; c.Banks = 1 })},
		{"line 128 B", with(func(c *Config) { c.LLC.LineSize = 128 })},
		{"assoc 8", with(func(c *Config) { c.LLC.Assoc = 8 })},
		{"4 banks", with(func(c *Config) { c.Banks = 4 })},
		{"not larger", with(func(c *Config) { c.LLC.Size = 4 << 10 })},
	} {
		if _, err := Chain(newEmu(t, base), newEmu(t, tc.cfg)); err == nil ||
			!strings.Contains(err.Error(), "LLC big") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Chain error %v, want one naming LLC big and %q", err, tc.want)
		}
	}
	// The fully associative pair a naive ladder key would group: 64 lines
	// on the rank path, 128 without an MRU hint.
	fa := func(name string, size uint64) *Emulator {
		return newEmu(t, Config{LLC: llc(name, size, 64, 0), Banks: 1})
	}
	if _, err := Chain(fa("LLC-4K", 4<<10), fa("LLC-8K", 8<<10)); err == nil || !strings.Contains(err.Error(), "LLC-4K") {
		t.Errorf("fully associative pair: Chain error %v, want one naming LLC-4K", err)
	}
	if _, err := Chain(); err == nil {
		t.Error("empty chain accepted")
	}
}
