package metrics

import (
	"testing"
	"testing/quick"
)

func TestMPKI(t *testing.T) {
	if got := MPKI(500, 1_000_000); got != 0.5 {
		t.Errorf("MPKI = %v, want 0.5", got)
	}
	if MPKI(10, 0) != 0 {
		t.Error("zero instructions must give 0")
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1, 4); got != 0.25 {
		t.Errorf("Rate = %v", got)
	}
	if Rate(1, 0) != 0 {
		t.Error("zero denominator must give 0")
	}
}

func TestSpeedupPct(t *testing.T) {
	if got := SpeedupPct(150, 100); got != 50 {
		t.Errorf("SpeedupPct = %v, want 50", got)
	}
	if got := SpeedupPct(100, 100); got != 0 {
		t.Errorf("no-change speedup = %v, want 0", got)
	}
	if SpeedupPct(1, 0) != 0 {
		t.Error("zero after-cycles must give 0")
	}
}

func TestSeriesYAt(t *testing.T) {
	var s Series
	s.Name = "x"
	s.Add(4, 10)
	s.Add(8, 5)
	if y, err := s.YAt(8); err != nil || y != 5 {
		t.Errorf("YAt(8) = %v, %v", y, err)
	}
	if _, err := s.YAt(99); err == nil {
		t.Error("missing x should error")
	}
}

// TestFlatnessEdgeCases covers the degenerate series shapes.
func TestFlatnessEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		points []Point
		want   float64
	}{
		{name: "empty", points: nil, want: 0},
		{name: "single point", points: []Point{{4, 10}}, want: 1},
		{name: "single zero point", points: []Point{{4, 0}}, want: 1},
		{name: "non-monotonic", points: []Point{{4, 10}, {8, 40}, {16, 20}}, want: 4},
		{name: "zero min", points: []Point{{4, 0}, {8, 10}}, want: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Series{Name: tc.name, Points: tc.points}
			if got := s.Flatness(); got != tc.want {
				t.Errorf("Flatness() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestFlatness(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 10)
	if f := s.Flatness(); f != 1 {
		t.Errorf("flat series flatness = %v", f)
	}
	s.Add(3, 20)
	if f := s.Flatness(); f != 2 {
		t.Errorf("flatness = %v, want 2", f)
	}
	var zero Series
	if zero.Flatness() != 0 {
		t.Error("empty series flatness must be 0")
	}
	var withZero Series
	withZero.Add(1, 0)
	withZero.Add(2, 5)
	if withZero.Flatness() != 0 {
		t.Error("zero-valued series flatness must be 0 (undefined ratio)")
	}
}

// Property: MPKI is linear in events.
func TestMPKILinear(t *testing.T) {
	check := func(a, b uint32, inst uint32) bool {
		if inst == 0 {
			return true
		}
		lhs := MPKI(uint64(a), uint64(inst)) + MPKI(uint64(b), uint64(inst))
		rhs := MPKI(uint64(a)+uint64(b), uint64(inst))
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6*(1+rhs)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
