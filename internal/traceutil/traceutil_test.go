package traceutil

import (
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// collect feeds refs through a Collector.
func collect(refs []trace.Ref) Stats {
	c := NewCollector()
	for _, r := range refs {
		c.Add(r)
	}
	return c.Stats()
}

// windows feeds refs through a Windower.
func windows(refs []trace.Ref, per uint64) []WindowStat {
	w := NewWindower(per)
	for _, r := range refs {
		w.Add(r)
	}
	return w.Windows()
}

func TestCollectBasics(t *testing.T) {
	refs := []trace.Ref{
		{Addr: 0x1000, Core: 0, Size: 8, Kind: mem.Load},
		{Addr: 0x1008, Core: 0, Size: 8, Kind: mem.Store},
		{Addr: 0x2000, Core: 1, Size: 8, Kind: mem.Load},
		{Addr: 0x1010, Core: 0, Size: 8, Kind: mem.Load},
	}
	s := collect(refs)
	if s.Refs != 4 || s.Loads != 3 || s.Stores != 1 {
		t.Errorf("mix wrong: %+v", s)
	}
	if s.PerCore[0] != 3 || s.PerCore[1] != 1 {
		t.Errorf("per-core wrong: %v", s.PerCore)
	}
	// Lines: 0x1000>>6=64, 0x2000>>6=128 -> 2 distinct lines.
	if s.FootprintBytes != 2*64 {
		t.Errorf("footprint = %d, want 128", s.FootprintBytes)
	}
	// Core 0's transitions: +8, +8 -> all sequential.
	if s.SeqFraction != 1.0 {
		t.Errorf("seq fraction = %v, want 1.0", s.SeqFraction)
	}
}

func TestStrideHistogram(t *testing.T) {
	// Strides of exactly 256 bytes on one core.
	var refs []trace.Ref
	for i := 0; i < 10; i++ {
		refs = append(refs, trace.Ref{Addr: mem.Addr(i * 256), Core: 0, Size: 8, Kind: mem.Load})
	}
	s := collect(refs)
	// 256 = 2^8 -> bucket 8.
	if s.StrideHist[8] != 9 {
		t.Errorf("stride bucket 8 = %d, want 9 (hist %v)", s.StrideHist[8], s.StrideHist[:10])
	}
	if s.DominantStride() != 256 {
		t.Errorf("dominant stride = %d, want 256", s.DominantStride())
	}
}

func TestInterleavedCoresDoNotPolluteStrides(t *testing.T) {
	// Two cores streaming distant regions: per-core strides stay small.
	var refs []trace.Ref
	for i := 0; i < 10; i++ {
		refs = append(refs,
			trace.Ref{Addr: mem.Addr(0x10000 + i*8), Core: 0, Size: 8, Kind: mem.Load},
			trace.Ref{Addr: mem.Addr(0x90000 + i*8), Core: 1, Size: 8, Kind: mem.Load},
		)
	}
	s := collect(refs)
	if s.SeqFraction != 1.0 {
		t.Errorf("per-core stride tracking broken: seq fraction %v", s.SeqFraction)
	}
}

func TestWindows(t *testing.T) {
	var refs []trace.Ref
	// Window 1: 4 refs over 2 lines; window 2: 4 refs over 4 lines;
	// window 3 (partial): 1 store.
	for i := 0; i < 4; i++ {
		refs = append(refs, trace.Ref{Addr: mem.Addr((i % 2) * 64), Size: 8, Kind: mem.Load})
	}
	for i := 0; i < 4; i++ {
		refs = append(refs, trace.Ref{Addr: mem.Addr(0x1000 + i*64), Size: 8, Kind: mem.Load})
	}
	refs = append(refs, trace.Ref{Addr: 0x5000, Size: 8, Kind: mem.Store})

	ws := windows(refs, 4)
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3", len(ws))
	}
	if ws[0].DistinctBytes != 2*64 || ws[1].DistinctBytes != 4*64 {
		t.Errorf("window footprints wrong: %+v", ws[:2])
	}
	if ws[2].DistinctBytes != 64 || ws[2].StoreFraction != 1.0 {
		t.Errorf("partial window wrong: %+v", ws[2])
	}
}

func TestWindowsDefaultSize(t *testing.T) {
	ws := windows([]trace.Ref{{Addr: 0, Size: 8}}, 0)
	if len(ws) != 1 {
		t.Fatalf("got %d windows", len(ws))
	}
}

func TestEmptyTrace(t *testing.T) {
	s := collect(nil)
	if s.Refs != 0 || s.FootprintBytes != 0 || s.SeqFraction != 0 {
		t.Errorf("empty trace stats: %+v", s)
	}
	if ws := windows(nil, 4); len(ws) != 0 {
		t.Errorf("empty trace windows: %v", ws)
	}
}
