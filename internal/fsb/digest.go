// Stream digest: an order-sensitive fingerprint of bus traffic.
//
// Every delivery guarantee the pipeline makes — per-event == batched,
// live == replay, no event lost or reordered per snooper — collapses to
// one checkable claim: two deliveries of the same run produce the same
// digest. The digest is FNV-1a over each event's fields in delivery
// order, so a single dropped, duplicated, mutated, or reordered event
// changes it with overwhelming probability. internal/verify attaches
// digests beside the emulators to turn "bit-identical by construction"
// into a measured property.

package fsb

import "cmpmem/internal/trace"

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// StreamDigest fingerprints the event stream it snoops. It implements
// Snooper; attach it to a live bus or a replay alongside the emulators.
// Read Sum only after the bus has closed (a fanned bus runs the digest
// on a worker goroutine until then).
type StreamDigest struct {
	sum    uint64
	events uint64
}

// NewStreamDigest returns a digest in its initial state.
func NewStreamDigest() *StreamDigest {
	return &StreamDigest{sum: fnvOffset}
}

// mix folds one 64-bit word into the digest byte by byte.
func (d *StreamDigest) mix(v uint64) {
	s := d.sum
	for i := 0; i < 8; i++ {
		s ^= v & 0xFF
		s *= fnvPrime
		v >>= 8
	}
	d.sum = s
}

// OnRef implements Snooper.
func (d *StreamDigest) OnRef(r trace.Ref) {
	d.events++
	d.mix(uint64(r.Addr))
	d.mix(uint64(r.Core)<<16 | uint64(r.Size)<<8 | uint64(r.Kind))
}

// OnMsg implements Snooper. Messages are domain-separated from refs so
// a message can never alias a memory transaction in the digest.
func (d *StreamDigest) OnMsg(m Message) {
	d.events++
	d.mix(^uint64(0))
	d.mix(uint64(m.Kind)<<48 | uint64(m.Core)<<40 | m.Value)
}

// Sum returns the digest over everything observed so far.
func (d *StreamDigest) Sum() uint64 { return d.sum }

// Events returns the number of events observed (refs plus messages).
func (d *StreamDigest) Events() uint64 { return d.events }
