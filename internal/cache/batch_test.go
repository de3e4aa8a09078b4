package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// randRefs builds a reference stream with the pathologies the batch
// path must route correctly: mixed cores (run-length flushing), mixed
// kinds, straddling references, and zero sizes.
func randRefs(rng *rand.Rand, n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	core := uint8(0)
	for i := range refs {
		if rng.Intn(16) == 0 {
			core = uint8(rng.Intn(8))
		}
		kind := mem.Load
		if rng.Intn(4) == 0 {
			kind = mem.Store
		}
		size := uint8(1 << rng.Intn(4))
		switch rng.Intn(32) {
		case 0:
			size = 0 // zero-size clamp path
		case 1:
			size = 255 // straddler bait
		}
		refs[i] = trace.Ref{
			Addr: mem.Addr(rng.Intn(1 << 16)),
			Size: size,
			Kind: kind,
			Core: core,
		}
	}
	return refs
}

// TestAccessBatchEquivalence pins AccessBatch to the per-ref path:
// identical miss count, identical full Stats (including per-core
// arrays), and identical snapshots, across geometries, policies,
// sectored lines, and batch sizes.
func TestAccessBatchEquivalence(t *testing.T) {
	configs := []Config{
		{Name: "llc", Size: 1 << 14, LineSize: 64, Assoc: 16},
		{Name: "small", Size: 1 << 12, LineSize: 64, Assoc: 4},
		{Name: "fifo", Size: 1 << 13, LineSize: 64, Assoc: 8, Repl: FIFO},
		{Name: "rand", Size: 1 << 13, LineSize: 64, Assoc: 8, Repl: Random},
		{Name: "bigline", Size: 1 << 14, LineSize: 256, Assoc: 8},
		{Name: "sector", Size: 1 << 14, LineSize: 256, Assoc: 8, SectorSize: 64},
		{Name: "fullyassoc", Size: 1 << 13, LineSize: 64, Assoc: 0},
	}
	for _, cfg := range configs {
		for _, batch := range []int{1, 7, 64, 1024} {
			rng := rand.New(rand.NewSource(42))
			refs := randRefs(rng, 4096)

			serial, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			wantMiss := 0
			for _, r := range refs {
				wantMiss += serial.AccessRef(r)
			}
			gotMiss := 0
			for off := 0; off < len(refs); off += batch {
				end := off + batch
				if end > len(refs) {
					end = len(refs)
				}
				gotMiss += batched.AccessBatch(refs[off:end])
			}

			if gotMiss != wantMiss {
				t.Errorf("%s batch=%d: misses %d, want %d", cfg.Name, batch, gotMiss, wantMiss)
			}
			if !reflect.DeepEqual(*serial.Stats(), *batched.Stats()) {
				t.Errorf("%s batch=%d: Stats diverge: %+v vs %+v",
					cfg.Name, batch, *serial.Stats(), *batched.Stats())
			}
			if !reflect.DeepEqual(serial.Snapshot(), batched.Snapshot()) {
				t.Errorf("%s batch=%d: snapshots diverge", cfg.Name, batch)
			}
		}
	}
}

// TestAccessBatchWithPrefetch exercises the pfLive-gated flag path: a
// prefetched line's first demand load must clear the prefetch bit and
// bookkeep pfLive through every route — the batch loop, Access, Touch
// and TouchPF, whose counter-only shortcut is gated on pfLive — whether
// it hits the set's MRU hint (B, filled last, loaded first) or the scan
// (A).
func TestAccessBatchWithPrefetch(t *testing.T) {
	const A, B = mem.Addr(0x1000), mem.Addr(0x1400) // the same set of 16
	routes := map[string]func(c *Cache, a mem.Addr) bool{
		"AccessBatch": func(c *Cache, a mem.Addr) bool {
			return c.AccessBatch([]trace.Ref{{Addr: a, Size: 8, Kind: mem.Load}}) != 0
		},
		"Access": func(c *Cache, a mem.Addr) bool { return c.Access(a, 8, mem.Load, 0) != 0 },
		"Touch":  func(c *Cache, a mem.Addr) bool { return c.Touch(a, mem.Load, 0) },
		"TouchPF": func(c *Cache, a mem.Addr) bool {
			miss, _ := c.TouchPF(a, mem.Load, 0)
			return miss
		},
	}
	for name, load := range routes {
		c, err := New(Config{Name: "pf", Size: 1 << 12, LineSize: 64, Assoc: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Fill(A, 0) || !c.Fill(B, 0) {
			t.Fatal("Fill of empty cache returned false")
		}
		for live, a := range []mem.Addr{B, A} {
			if load(c, a) {
				t.Fatalf("%s: prefetched line %#x should hit", name, a)
			}
			if c.pfLive != 1-live {
				t.Errorf("%s: pfLive = %d after the demand hit on %#x, want %d", name, c.pfLive, a, 1-live)
			}
		}
		// Both PF bits must have been cleared by the demand hits: a later
		// TouchPF reports no prefetch attribution.
		for _, a := range []mem.Addr{A, B} {
			if _, pfHit := c.TouchPF(a, mem.Load, 0); pfHit {
				t.Errorf("%s: prefetch bit of %#x survived a demand hit", name, a)
			}
		}
	}
}
