package cache

import (
	"reflect"
	"testing"
)

// counters returns every uint64 counter of s, the per-core arrays
// flattened in, in field order. A field of any other kind fails the
// test: the arithmetic below only knows counters.
func counters(t *testing.T, s *Stats) []*uint64 {
	t.Helper()
	var out []*uint64
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			out = append(out, f.Addr().Interface().(*uint64))
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				out = append(out, f.Index(j).Addr().Interface().(*uint64))
			}
		default:
			t.Fatalf("Stats.%s: unexpected kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return out
}

// TestStatsArithmetic fills every counter of two Stats with distinct
// values and checks Add, AddScaled and Sub counter by counter, so a
// counter the arithmetic forgets fails here.
func TestStatsArithmetic(t *testing.T) {
	var a, b Stats
	ca, cb := counters(t, &a), counters(t, &b)
	for i := range ca {
		*ca[i] = uint64(1000 + 3*i)
		*cb[i] = uint64(7 + 5*i)
	}
	const w = 11
	sum, scaled := a, a
	sum.Add(&b)
	scaled.AddScaled(&b, w)
	diff := a.Sub(&b)
	wrapped := b.Sub(&a)
	cs, csc, cd, cw := counters(t, &sum), counters(t, &scaled), counters(t, &diff), counters(t, &wrapped)
	for i := range ca {
		x, y := *ca[i], *cb[i]
		if *cs[i] != x+y || *csc[i] != x+w*y || *cd[i] != x-y || *cw[i] != y-x {
			t.Fatalf("counter %d: Add %d, AddScaled %d, Sub %d, wrapped Sub %d; want %d, %d, %d, %d",
				i, *cs[i], *csc[i], *cd[i], *cw[i], x+y, x+w*y, x-y, y-x)
		}
	}
	if back := sum.Sub(&b); back != a {
		t.Error("(a + b) - b != a")
	}
}

// TestStatsDeltaRoundTrip: the delta between a snapshot and a later
// state of the same cache is what the window added.
func TestStatsDeltaRoundTrip(t *testing.T) {
	before := Stats{Accesses: 100, Misses: 7, Loads: 60, Stores: 40, TrafficBytes: 4096}
	before.PerCoreAccesses[0] = 100
	after := before
	after.Accesses += 50
	after.Misses += 3
	after.Loads += 30
	after.Stores += 20
	after.TrafficBytes += 1024
	after.PerCoreAccesses[0] += 50
	d := after.Sub(&before)
	if d.Accesses != 50 || d.Misses != 3 || d.Loads != 30 || d.Stores != 20 ||
		d.TrafficBytes != 1024 || d.PerCoreAccesses[0] != 50 {
		t.Errorf("delta = %+v", d)
	}
}
