package arbiter

import "anton2/internal/wire"

// This file is the arbiters' part of the machine snapshot: the fairness
// position of one arbiter. A record carries no kind or width — the machine
// snapshot names the arbiter kind once, and the width is the live arbiter's.

// State codes a's fairness position: the cursor of a round-robin arbiter,
// the K accumulators and round-robin thermometer of an inverse-weighted one.
// Decoding loads it into an arbiter of the same kind and width.
func (a *Arbiter) State(c *wire.Codec) {
	iw := a.iw
	if iw == nil {
		next := uint64(a.next)
		if c.Uvarint(&next); next >= uint64(a.k) {
			c.Fail("arbiter: round-robin cursor %d outside [0, %d)", next, a.k)
			return
		}
		a.next = uint8(next)
		return
	}
	for i := range iw.accum {
		acc := uint64(iw.accum[i])
		if c.Uvarint(&acc); acc >= 2*uint64(accumMSB) {
			c.Fail("arbiter: accumulator %d exceeds %d bits", acc, inverseWeightBits+1)
			return
		}
		iw.accum[i] = uint32(acc)
	}
	c.Uvarint(&iw.rrTherm)
}
