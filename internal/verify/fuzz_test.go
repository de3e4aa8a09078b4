package verify

import (
	"testing"

	"cmpmem/internal/cache"
	"cmpmem/internal/dragonhead"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/oracle"
	"cmpmem/internal/trace"
)

// FuzzVerifyOracle feeds an arbitrary access sequence to all four
// independent LRU implementations — the production cache, the naive
// reference cache, the stack-distance oracle, and a banked Dragonhead
// emulator behind its own AF — and requires exact agreement on
// accesses, misses, and (cache vs reference) replacement state. The
// fuzzer explores the adversarial corner the random tests
// cannot: pathological conflict patterns, straddling sizes, and
// aliasing address bits.
func FuzzVerifyOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 0, 16, 32})
	f.Add([]byte("sequential-ish input covering a few lines"))
	f.Add(bytesRamp(256))

	cfgs := []cache.Config{
		{Name: "dm", Size: 1 << 10, LineSize: 64, Assoc: 1},
		{Name: "sa", Size: 2 << 10, LineSize: 64, Assoc: 4},
		{Name: "fa", Size: 1 << 10, LineSize: 64, Assoc: 0},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		orc, err := oracle.New(64)
		if err != nil {
			t.Fatal(err)
		}
		type model struct {
			cfg cache.Config
			tr  *oracle.Tracked
			c   *cache.Cache
			ref *RefCache
			emu *dragonhead.Emulator
		}
		var models []model
		for _, cfg := range cfgs {
			tr, err := orc.Track(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := NewRefCache(cfg.Size, cfg.LineSize, cfg.Assoc)
			if err != nil {
				t.Fatal(err)
			}
			// As many banks as the board has, halved until each holds a
			// set — the rule core.bankedConfig applies.
			dcfg := dragonhead.DefaultConfig(cfg)
			sets := cfg.Size / cfg.LineSize
			if cfg.Assoc > 0 {
				sets /= uint64(cfg.Assoc)
			} else {
				sets = 1
			}
			for uint64(dcfg.Banks) > sets {
				dcfg.Banks /= 2
			}
			emu, err := dragonhead.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			emu.OnMsg(fsb.Message{Kind: fsb.MsgStart})
			models = append(models, model{cfg, tr, c, rc, emu})
		}
		orc.OnMsg(fsb.Message{Kind: fsb.MsgStart})

		// Decode the fuzz input as a stream of accesses: 4 bytes form a
		// 16-bit address (dense enough to alias), a size, and a kind.
		// The oracle and the emulators consume the refs through their
		// exported AF front ends, which apply the same size clamp and
		// line split the caches do internally.
		for i := 0; i+3 < len(data); i += 4 {
			addr := mem.Addr(uint64(data[i]) | uint64(data[i+1])<<8)
			size := data[i+2]
			kind := mem.Kind(data[i+3] & 1)
			ref := trace.Ref{Addr: addr, Size: size, Kind: kind}
			orc.OnRef(ref)
			for _, m := range models {
				m.c.Access(addr, size, kind, 0)
				m.ref.Access(addr, size, kind, 0)
				m.emu.OnRef(ref)
			}
		}

		for _, m := range models {
			st := m.c.Stats()
			want := m.tr.Misses()
			if st.Misses != want {
				t.Fatalf("%s: cache %d misses, oracle predicts %d", m.cfg.Name, st.Misses, want)
			}
			if m.ref.Misses() != want {
				t.Fatalf("%s: ref cache %d misses, oracle predicts %d", m.cfg.Name, m.ref.Misses(), want)
			}
			if st.Accesses != orc.Accesses() || m.ref.Accesses() != orc.Accesses() {
				t.Fatalf("%s: access counts diverge: cache %d, ref %d, oracle %d",
					m.cfg.Name, st.Accesses, m.ref.Accesses(), orc.Accesses())
			}
			if err := DiffSnapshots(m.c.Snapshot(), m.ref.Snapshot()); err != nil {
				t.Fatalf("%s: %v", m.cfg.Name, err)
			}
			m.emu.Finalize()
			if got := m.emu.Stats(); got != *st {
				t.Fatalf("%s: emulator diverges from cache (emulator/cache): accesses %d/%d, misses %d/%d, evictions %d/%d, writebacks %d/%d",
					m.cfg.Name, got.Accesses, st.Accesses, got.Misses, st.Misses,
					got.Evictions, st.Evictions, got.Writebacks, st.Writebacks)
			}
		}
	})
}

func bytesRamp(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 13)
	}
	return b
}
