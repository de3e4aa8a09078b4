package prefetch

import (
	"testing"
	"testing/quick"

	"cmpmem/internal/mem"
)

func newPF(t *testing.T, cfg Config) *Prefetcher {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(64)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{TableSize: 0, Confidence: 1, Degree: 1, LineSize: 64},
		{TableSize: 4, Confidence: 0, Degree: 1, LineSize: 64},
		{TableSize: 4, Confidence: 1, Degree: 0, LineSize: 64},
		{TableSize: 4, Confidence: 1, Degree: 1, LineSize: 48},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestForwardStrideDetection(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 2, Degree: 2, LineSize: 64, RegionBits: 20})
	var out []mem.Addr
	// Unit-stride stream: lines 0,1,2,3...
	for i := 0; i < 3; i++ {
		out = p.Train(mem.Addr(i*64), out[:0])
	}
	// After 3 accesses (2 confirming strides), predictions fire.
	if len(out) != 2 {
		t.Fatalf("got %d predictions, want 2", len(out))
	}
	if out[0] != 3*64 || out[1] != 4*64 {
		t.Errorf("predictions %v, want [192 256]", out)
	}
}

func TestBackwardStrideDetection(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 2, Degree: 1, LineSize: 64, RegionBits: 24})
	var out []mem.Addr
	start := 100
	for i := 0; i < 3; i++ {
		out = p.Train(mem.Addr((start-i)*64), out[:0])
	}
	if len(out) != 1 || out[0] != mem.Addr(97*64) {
		t.Errorf("backward prediction %v, want [97*64]", out)
	}
}

func TestLargeStride(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 1, Degree: 1, LineSize: 64, RegionBits: 30})
	var out []mem.Addr
	p.Train(0, nil)
	out = p.Train(mem.Addr(8*64), out[:0])
	if len(out) != 1 || out[0] != mem.Addr(16*64) {
		t.Errorf("stride-8 prediction %v, want [16*64]", out)
	}
}

func TestNoPredictionWithoutConfidence(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 3, Degree: 4, LineSize: 64, RegionBits: 20})
	var out []mem.Addr
	out = p.Train(0, out)
	out = p.Train(64, out)
	out = p.Train(128, out)
	if len(out) != 0 {
		t.Errorf("predicted %v before reaching confidence", out)
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 2, Degree: 1, LineSize: 64, RegionBits: 20})
	var out []mem.Addr
	p.Train(0, nil)
	p.Train(64, nil)
	out = p.Train(128, out[:0])
	if len(out) == 0 {
		t.Fatal("expected prediction on stable stride")
	}
	// Break the stride: jump far within region.
	out = p.Train(64*50, out[:0])
	if len(out) != 0 {
		t.Errorf("prediction survived stride break: %v", out)
	}
}

func TestSameLineAccessIgnored(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 2, Degree: 1, LineSize: 64, RegionBits: 20})
	p.Train(0, nil)
	p.Train(64, nil)
	p.Train(64+8, nil) // same line, different offset
	out := p.Train(128, nil)
	if len(out) == 0 {
		t.Error("same-line re-access should not reset the detector")
	}
}

func TestTableEviction(t *testing.T) {
	p := newPF(t, Config{TableSize: 2, Confidence: 1, Degree: 1, LineSize: 64, RegionBits: 12})
	// Touch 3 distinct regions: the LRU entry is evicted.
	p.Train(0<<12, nil)
	p.Train(1<<12, nil)
	p.Train(2<<12, nil)
	st := p.Stats()
	if st.Trainings != 3 {
		t.Errorf("trainings = %d, want 3", st.Trainings)
	}
	// Region 0 was evicted: re-touching it allocates fresh (no stride).
	out := p.Train(0<<12|64, nil)
	if len(out) != 0 {
		t.Errorf("evicted region retained state: %v", out)
	}
}

// TestNeverPrefetchNegative: predictions are always line-aligned,
// non-negative addresses.
func TestPredictionAlignmentProperty(t *testing.T) {
	p := newPF(t, DefaultConfig(64))
	check := func(addrs []uint32) bool {
		var out []mem.Addr
		for _, a := range addrs {
			out = p.Train(mem.Addr(a), out[:0])
			for _, pred := range out {
				if uint64(pred)%64 != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := newPF(t, Config{TableSize: 8, Confidence: 1, Degree: 2, LineSize: 64, RegionBits: 20})
	var out []mem.Addr
	for i := 0; i < 10; i++ {
		out = p.Train(mem.Addr(i*64), out[:0])
	}
	st := p.Stats()
	if st.Issued == 0 || st.Streams == 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
}

func BenchmarkTrainStream(b *testing.B) {
	p, _ := New(DefaultConfig(64))
	var out []mem.Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.Train(mem.Addr(i*64), out[:0])
	}
	_ = out
}
