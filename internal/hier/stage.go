package hier

import (
	"math/bits"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/mem"
	"cmpmem/internal/trace"
)

// stage is the bus-facing half of the hierarchy and its only snooper:
// the AF and one DL1 per core, feeding every back end that agrees on
// (Cores, DL1). The back ends never write into the DL1s, so sharing a
// stage gives each machine exactly the DL1 it would have alone.
type stage struct {
	af        fsb.AF
	l1        []*cache.Cache // by core
	lineShift uint
	backs     []*Machine
}

// stageKey is what machines must agree on to share a stage.
type stageKey struct {
	cores int
	dl1   cache.Config
}

// New builds one machine per config, in cfgs order, and one stage for
// each distinct (Cores, DL1) among them. The stages are the snoopers to
// attach to the bus; read the machines once the bus is closed.
func New(cfgs ...Config) ([]*Machine, []fsb.Snooper, error) {
	var machines []*Machine
	var snoopers []fsb.Snooper
	stages := map[stageKey]*stage{}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
		key := stageKey{cfg.Cores, cfg.DL1}
		st := stages[key]
		if st == nil {
			st = &stage{lineShift: uint(bits.TrailingZeros64(cfg.DL1.LineSize))}
			for i := 0; i < cfg.Cores; i++ {
				l1, err := cache.New(cfg.DL1)
				if err != nil {
					return nil, nil, err
				}
				st.l1 = append(st.l1, l1)
			}
			stages[key] = st
			snoopers = append(snoopers, st)
		}
		m, err := newMachine(cfg, st)
		if err != nil {
			return nil, nil, err
		}
		st.backs = append(st.backs, m)
		machines = append(machines, m)
	}
	return machines, snoopers, nil
}

// OnRef implements fsb.Snooper: one memory instruction from some core.
// Every back end's clock ticks once; then each line of the access is
// touched in the core's DL1 once, and every back end services each line
// that missed. A straddling access may hit in its first line and miss in
// its second; a zero-size one counts as one byte, as in every other
// model of the AF.
func (s *stage) OnRef(r trace.Ref) {
	if !s.af.Ref(r) || int(r.Core) >= len(s.l1) {
		return
	}
	for _, m := range s.backs {
		m.tick()
	}
	l1 := s.l1[r.Core]
	first, last := r.Units(s.lineShift)
	for ln := first; ln <= last; ln++ {
		lineAddr := mem.Addr(ln << s.lineShift)
		if l1.Touch(lineAddr, r.Kind, r.Core) {
			for _, m := range s.backs {
				m.serviceL2(lineAddr, r.Kind, r.Core)
			}
		}
	}
}

// OnMsg implements fsb.Snooper.
func (s *stage) OnMsg(msg fsb.Message) { s.af.Msg(msg) }
