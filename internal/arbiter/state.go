package arbiter

import "anton2/internal/wire"

// This file is the arbiters' part of the machine snapshot: the fairness
// position of one arbiter. The machine only ever instantiates RoundRobin and
// InverseWeighted, so a concrete-type switch covers the registry without
// widening the Arbiter interface. A record carries no kind or width — the
// machine snapshot names the arbiter kind once, and the width is the live
// arbiter's.

// State codes a's fairness position: the cursor of a RoundRobin, the K
// accumulators and round-robin thermometer of an InverseWeighted. Decoding
// loads it into an arbiter of the same concrete type and width.
func State(c *wire.Codec, a Arbiter) {
	switch ar := a.(type) {
	case *RoundRobin:
		next := uint64(ar.next)
		if c.Uvarint(&next); next >= uint64(ar.k) {
			c.Fail("arbiter: round-robin cursor %d outside [0, %d)", next, ar.k)
			return
		}
		ar.next = int(next)
	case *InverseWeighted:
		for i := range ar.state.Accum {
			acc := uint64(ar.state.Accum[i])
			if c.Uvarint(&acc); acc >= 2<<ar.state.M {
				c.Fail("arbiter: accumulator %d exceeds %d bits", acc, ar.state.M+1)
				return
			}
			ar.state.Accum[i] = uint32(acc)
		}
		c.Uvarint(&ar.rrTherm)
	default:
		c.Fail("arbiter: cannot snapshot %T", a)
	}
}
