// Package metrics provides the derived measures the paper reports:
// misses per 1000 instructions (MPKI), miss rates, prefetch speedups,
// and instruction/time-synchronized series built from CB samples.
package metrics

import "fmt"

// MPKI returns events per 1000 instructions.
func MPKI(events, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(events) * 1000 / float64(instructions)
}

// Rate returns part/whole, or 0 for an empty denominator.
func Rate(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// SpeedupPct returns the percentage performance gain of after vs before
// in cycles (lower cycles = faster): (before/after - 1) * 100.
func SpeedupPct(beforeCycles, afterCycles float64) float64 {
	if afterCycles == 0 {
		return 0
	}
	return (beforeCycles/afterCycles - 1) * 100
}

// Point is one (x, y) measurement of a sweep series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sweep curve (one line of a paper figure).
type Series struct {
	Name   string
	Points []Point
}

// Add appends one point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value at the given x, or an error if absent.
func (s *Series) YAt(x float64) (float64, error) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, nil
		}
	}
	return 0, fmt.Errorf("metrics: series %q has no point at x=%g", s.Name, x)
}

// Flatness returns max(y)/min(y) over the series — ~1 for the flat MDS
// curve of Figure 4. A single point is trivially flat (1) even at y=0;
// an empty series has no flatness (0).
func (s *Series) Flatness() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	if len(s.Points) == 1 {
		return 1
	}
	min, max := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points[1:] {
		if p.Y < min {
			min = p.Y
		}
		if p.Y > max {
			max = p.Y
		}
	}
	if min == 0 {
		return 0
	}
	return max / min
}
