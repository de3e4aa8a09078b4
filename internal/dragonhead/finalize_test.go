package dragonhead

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// The emulator must participate in the bus's lifecycle.
var (
	_ fsb.BatchSnooper = (*Emulator)(nil)
	_ fsb.Finalizer    = (*Emulator)(nil)
)

// TestLiveReadsPanic: once an event has been delivered, every counter
// reader must fail loudly until Finalize, then work normally.
func TestLiveReadsPanic(t *testing.T) {
	e := newEmu(t, Config{LLC: llc(1 << 20)})
	readers := map[string]func(){
		"Stats":        func() { e.Stats() },
		"BankStats":    func() { e.BankStats(0) },
		"Samples":      func() { e.Samples() },
		"MPKI":         func() { e.MPKI() },
		"Instructions": func() { e.Instructions() },
		"Ignored":      func() { e.Ignored() },
	}
	for _, read := range readers {
		read() // nothing delivered yet: nothing to race with
	}
	e.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	for name, read := range readers {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic while live", name)
					return
				}
				if !strings.Contains(r.(string), name) {
					t.Errorf("%s: panic message %q does not name the call", name, r)
				}
			}()
			read()
		}()
	}
	e.Finalize()
	for _, read := range readers {
		read() // must not panic once sealed
	}
}

// TestFinalizeViaBatchedBus: the read guard does not depend on how the
// bus delivers. At one processor a batched bus delivers on the
// producer's goroutine; at four it fans its two emulators out over two
// workers. Either way a read between the first batch and Close panics,
// and after Close the counters match per-event delivery exactly.
func TestFinalizeViaBatchedBus(t *testing.T) {
	stream := []trace.Ref{fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart})}
	for i := 0; i < 10_000; i++ {
		stream = append(stream, trace.Ref{Addr: mem.Addr(i * 64 % (1 << 22)), Core: uint8(i % 4), Size: 8, Kind: mem.Load})
	}
	stream = append(stream,
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgInstRetired, Core: 0, Value: 10_000}),
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCycles, Value: 10_000}),
		fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStop}))

	serial := newEmu(t, Config{LLC: llc(256 << 10)})
	bus := fsb.NewBus()
	bus.Attach(serial)
	for _, r := range stream {
		if m, ok := fsb.DecodeMessage(r); ok {
			bus.Msg(m)
		} else {
			bus.Ref(r)
		}
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			batched := newEmu(t, Config{LLC: llc(256 << 10)})
			bus := fsb.NewBatchedBus(64)
			bus.Attach(batched)
			bus.Attach(newEmu(t, Config{LLC: llc(256 << 10)}))
			// 5000 events fill 78 batches, many more than the bus's
			// buffers: a fanned producer has waited on the workers.
			bus.Refs(stream[:5000])
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Stats readable before Close")
					}
				}()
				batched.Stats()
			}()
			bus.Refs(stream[5000:])
			if err := bus.Close(); err != nil {
				t.Fatal(err)
			}

			if serial.Stats() != batched.Stats() {
				t.Errorf("stats diverge: serial %+v, batched %+v", serial.Stats(), batched.Stats())
			}
			if serial.MPKI() != batched.MPKI() {
				t.Errorf("MPKI diverges: %v vs %v", serial.MPKI(), batched.MPKI())
			}
			if !reflect.DeepEqual(serial.Samples(), batched.Samples()) {
				t.Errorf("samples diverge: %d vs %d", len(serial.Samples()), len(batched.Samples()))
			}
		})
	}
}
