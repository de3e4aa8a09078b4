package dragonhead

import (
	"fmt"

	"cmpmem/internal/cache"
	"cmpmem/internal/fsb"
	"cmpmem/internal/trace"
)

// Chainable reports why e cannot be a rung of a Chain, or nil: a rung is
// shared, serial, LRU and unsectored, with 1 to 64 ways (an MRU hint).
func Chainable(e *Emulator) error {
	c, why := e.cfg, ""
	switch {
	case c.PrivatePerCore > 0:
		why = "the private organisation"
	case e.nshards > 1:
		why = fmt.Sprintf("%d bank shards", e.nshards)
	case c.LLC.Repl != cache.LRU:
		why = c.LLC.Repl.String() + " replacement"
	case c.LLC.SectorSize != 0:
		why = "sectored lines"
	case c.LLC.Assoc < 1 || c.LLC.Assoc > 64:
		why = fmt.Sprintf("associativity %d (no MRU hint)", c.LLC.Assoc)
	default:
		return nil
	}
	return fmt.Errorf("dragonhead: LLC %s cannot chain: %s", c.LLC.Name, why)
}

// Chain returns one snooper that answers a ladder of emulators on one
// walk of each stretch (cache.AccessChain; DESIGN.md §5). Each must be
// Chainable, match the one before in line size, associativity and bank
// count, and be strictly larger; each reads exactly as if it had
// snooped alone.
func Chain(emus ...*Emulator) (fsb.Snooper, error) {
	if len(emus) == 0 {
		return nil, fmt.Errorf("dragonhead: empty chain")
	}
	ch := &chain{emus: emus}
	for i, e := range emus {
		if err := Chainable(e); err != nil {
			return nil, err
		}
		p, c := emus[max(i-1, 0)].cfg, e.cfg // the first rung against itself
		switch {
		case c.LLC.LineSize != p.LLC.LineSize || c.LLC.Assoc != p.LLC.Assoc || c.Banks != p.Banks:
			return nil, fmt.Errorf("dragonhead: LLC %s cannot chain after %s: line %d B, assoc %d, %d banks against %d B, %d, %d",
				c.LLC.Name, p.LLC.Name, c.LLC.LineSize, c.LLC.Assoc, c.Banks, p.LLC.LineSize, p.LLC.Assoc, p.Banks)
		case i > 0 && c.LLC.Size <= p.LLC.Size:
			return nil, fmt.Errorf("dragonhead: LLC %s cannot chain after %s: %d B is not larger than %d B",
				c.LLC.Name, p.LLC.Name, c.LLC.Size, p.LLC.Size)
		}
		ch.rungs = append(ch.rungs, e.banks)
	}
	return ch, nil
}

// chain is Chain's snooper, smallest rung first.
type chain struct {
	emus  []*Emulator
	rungs [][]*cache.Cache
}

func (c *chain) each(f func(*Emulator)) {
	for _, e := range c.emus {
		f(e)
	}
}

func (c *chain) OnRef(r trace.Ref)   { c.each(func(e *Emulator) { e.OnRef(r) }) }
func (c *chain) OnMsg(m fsb.Message) { c.each(func(e *Emulator) { e.OnMsg(m) }) }
func (c *chain) Finalize()           { c.each((*Emulator).Finalize) }

// OnBatch is Emulator.OnBatch's shared route with the ladder in place of
// one bank set. All see the same messages, so the first's window is all's.
func (c *chain) OnBatch(batch []trace.Ref) {
	c.each((*Emulator).arm)
	for i := 0; i < len(batch); i++ {
		if m, ok := fsb.DecodeMessage(batch[i]); ok {
			c.OnMsg(m)
			continue
		}
		if !c.emus[0].af.Open {
			c.each(func(e *Emulator) { e.af.Dropped++ })
			continue
		}
		j := i + 1
		for j < len(batch) && !fsb.IsMessage(batch[j]) {
			j++
		}
		cache.AccessChain(c.rungs, batch[i:j])
		i = j - 1
	}
}
