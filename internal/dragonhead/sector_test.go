package dragonhead

import (
	"fmt"
	"math/rand"
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// TestSectoredEmulatorMatchesMonolithicCache: the AF regulates a
// sectored LLC at sector granularity, so the banked emulator — any bank
// count, sharded, fed per event or per batch — holds exactly the
// counters of the one cache.Cache it emulates. (It used to regulate to
// the line-aligned address, so only sector 0 of a line was ever
// touched.)
func TestSectoredEmulatorMatchesMonolithicCache(t *testing.T) {
	// The probe of the defect: four loads to the four 32 B sectors of one
	// 128 B line are four sector fetches, not one.
	probe := newEmu(t, Config{LLC: cache.Config{Name: "p", Size: 64 << 10, LineSize: 128, Assoc: 4, SectorSize: 32}})
	probe.OnMsg(fsb.Message{Kind: fsb.MsgStart})
	for s := 0; s < 4; s++ {
		probe.OnRef(trace.Ref{Addr: mem.Addr(0x1000 + 32*s), Size: 8, Kind: mem.Load})
	}
	probe.Finalize()
	if st := probe.Stats(); st.Misses != 4 || st.TrafficBytes != 128 {
		t.Errorf("four sectors of one line: %d misses, %d B traffic, want 4 and 128", st.Misses, st.TrafficBytes)
	}

	rng := rand.New(rand.NewSource(17))
	stream := []trace.Ref{fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgStart})}
	for i := 0; i < 40_000; i++ {
		r := trace.Ref{
			Addr: mem.Addr(0x4000_0000 + rng.Intn(1<<18)),
			Size: []uint8{0, 1, 4, 8, 8, 8, 16, 64, 200, 255}[rng.Intn(10)],
			Kind: mem.Kind(rng.Intn(2)),
			Core: uint8(rng.Intn(6)),
		}
		if rng.Intn(8) == 0 {
			// End just past a sector or line boundary.
			r.Addr = r.Addr&^0xFF + mem.Addr(256-rng.Intn(int(r.Size)+1))
		}
		stream = append(stream, r)
		if i%5000 == 4999 {
			stream = append(stream, fsb.EncodeMessage(fsb.Message{Kind: fsb.MsgCycles, Value: uint64(i) * 1000}))
		}
	}

	for _, llc := range []cache.Config{
		{Name: "128/32", Size: 64 << 10, LineSize: 128, Assoc: 4, SectorSize: 32},
		{Name: "256/64", Size: 128 << 10, LineSize: 256, Assoc: 8, SectorSize: 64},
		{Name: "4096/64", Size: 256 << 10, LineSize: 4096, Assoc: 2, SectorSize: 64},
		{Name: "256/64/FIFO", Size: 64 << 10, LineSize: 256, Assoc: 4, SectorSize: 64, Repl: cache.FIFO},
		{Name: "64/unsectored", Size: 64 << 10, LineSize: 64, Assoc: 4},
	} {
		want, err := cache.New(llc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range stream[1:] {
			if !fsb.IsMessage(r) {
				want.AccessRef(r)
			}
		}
		for _, org := range []struct{ banks, shards int }{{1, 1}, {2, 1}, {4, 1}, {4, 2}} {
			for _, batched := range []bool{false, true} {
				name := fmt.Sprintf("%s banks=%d shards=%d batched=%v", llc.Name, org.banks, org.shards, batched)
				e := newEmu(t, Config{LLC: llc, Banks: org.banks, Shards: org.shards})
				if batched {
					for rest := stream; len(rest) > 0; {
						n := min(1+rng.Intn(900), len(rest))
						e.OnBatch(rest[:n])
						rest = rest[n:]
					}
				} else {
					for _, r := range stream {
						e.OnRef(r)
					}
				}
				e.Finalize()
				if got := e.Stats(); got != *want.Stats() {
					t.Errorf("%s: emulator %+v\n\tcache %+v", name, summary(got), summary(*want.Stats()))
				}
			}
		}
	}
}

// summary is the readable part of a Stats for a failure message.
func summary(s cache.Stats) string {
	return fmt.Sprintf("acc=%d miss=%d ld=%d st=%d ldmiss=%d wb=%d ev=%d fetch=%d traffic=%d",
		s.Accesses, s.Misses, s.Loads, s.Stores, s.LoadMisses, s.Writebacks, s.Evictions, s.SectorFetches, s.TrafficBytes)
}
