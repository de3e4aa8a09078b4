package oracle

import "testing"

// TestLineTableMatchesMap fills a line table through several doublings
// with the key shapes a reference stream makes, and holds it to a Go
// map: the same members, masks and count after every insert batch, and
// probes that stay short at load 3/4, so a hash that lets neighbouring
// keys or strided keys pile up fails here rather than in a profile.
// Keys sharing key&7 share a cell of their groups, so strided keys
// probe about 3.5 cells on average; random keys' longest probe is
// linear probing's own (about 90 cells at this size, whatever the
// hash), hence their looser max.
func TestLineTableMatchesMap(t *testing.T) {
	// 12 Ki keys leave a 16 Ki-cell table at load 3/4, four doublings
	// past minLines.
	const n = 12 << 10
	g := newRefGen(9)
	shapes := []struct {
		name     string
		key      func(i uint64) uint64
		maxProbe int
	}{
		{"dense", func(i uint64) uint64 { return 1 + i }, 64},
		{"stride 8", func(i uint64) uint64 { return 1 + 8*i }, 64},
		{"stride 64", func(i uint64) uint64 { return 1 + 64*i }, 64},
		{"two ranges", func(i uint64) uint64 { return 1 + i/2 + i%2<<40 }, 64},
		{"random", func(uint64) uint64 { return g.next()>>1 | 1 }, 128},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			tab := newLineTable()
			ref := map[uint64]uint64{}
			check := func() {
				if tab.n != len(ref) {
					t.Fatalf("n = %d, map holds %d", tab.n, len(ref))
				}
				members := 0
				for _, c := range tab.cells {
					if c.key == 0 {
						continue
					}
					members++
					if m, ok := ref[c.key]; !ok || m != c.mask {
						t.Fatalf("cell {%#x, %#x}: map has mask %#x (present %v)", c.key, c.mask, m, ok)
					}
				}
				for k, m := range ref {
					if got := tab.mask(k); got != m {
						t.Fatalf("mask(%#x) = %#x, want %#x", k, got, m)
					}
				}
				if members != len(ref) {
					t.Fatalf("%d occupied cells, map holds %d", members, len(ref))
				}
			}
			for i := uint64(0); i < n; i++ {
				k := sh.key(i)
				m := uint64(1) << (k % 64)
				tab.at(k).mask |= m
				ref[k] |= m
				if i&(i+1) == 0 { // after 1, 2, 4, ... inserts: across every doubling
					check()
				}
			}
			check()
			// A key never inserted finds an empty cell, and get the
			// clean one.
			for _, k := range []uint64{1 << 50, 1<<50 + 1} {
				if c := tab.cells[tab.find(k)]; c.key != 0 {
					t.Fatalf("absent key %#x found cell {%#x, %#x}", k, c.key, c.mask)
				}
				if c := tab.get(k); c != &tab.clean || *c != (lineCell{}) {
					t.Fatalf("get(%#x) = %p {%#x, %#x}, want the clean cell", k, c, c.key, c.mask)
				}
			}

			if 4*tab.n != 3*len(tab.cells) || len(tab.cells) != 16<<10 {
				t.Fatalf("%d keys in %d cells, want load 3/4 in 16 Ki", tab.n, len(tab.cells))
			}
			var sum, most int
			mask := len(tab.cells) - 1
			for i, c := range tab.cells {
				if c.key != 0 {
					probes := (i-tab.home(c.key))&mask + 1
					sum += probes
					most = max(most, probes)
				}
			}
			mean := float64(sum) / float64(tab.n)
			t.Logf("probes at load 3/4: mean %.2f, max %d", mean, most)
			if mean > 4 || most > sh.maxProbe {
				t.Errorf("probes at load 3/4: mean %.2f (bound 4), max %d (bound %d)", mean, most, sh.maxProbe)
			}
		})
	}
}
