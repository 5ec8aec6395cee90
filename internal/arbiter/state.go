package arbiter

import (
	"fmt"

	"anton2/internal/wire"
)

// This file is the arbiters' half of the checkpoint codec: the fairness
// position of one arbiter, appended to and read back from the machine
// snapshot. The machine only ever instantiates RoundRobin and
// InverseWeighted, so a concrete-type switch covers the registry without
// widening the Arbiter interface. A record carries no kind or width — the
// machine snapshot names the arbiter kind once, and the width is the live
// arbiter's.

// AppendState appends a's fairness position: the cursor of a RoundRobin, the
// K accumulators and round-robin thermometer of an InverseWeighted.
func AppendState(b []byte, a Arbiter) ([]byte, error) {
	switch ar := a.(type) {
	case *RoundRobin:
		return wire.AppendUvarint(b, uint64(ar.next)), nil
	case *InverseWeighted:
		for _, acc := range ar.state.Accum {
			b = wire.AppendUvarint(b, uint64(acc))
		}
		return wire.AppendUvarint(b, ar.rrTherm), nil
	default:
		return b, fmt.Errorf("arbiter: cannot snapshot %T", a)
	}
}

// ReadState loads a record AppendState wrote into an arbiter of the same
// concrete type and width.
func ReadState(r *wire.Reader, a Arbiter) {
	switch ar := a.(type) {
	case *RoundRobin:
		next := r.Uvarint()
		if next >= uint64(ar.k) {
			r.Fail("arbiter: round-robin cursor %d outside [0, %d)", next, ar.k)
			return
		}
		ar.next = int(next)
	case *InverseWeighted:
		for i := range ar.state.Accum {
			acc := r.Uvarint()
			if acc >= 2<<ar.state.M {
				r.Fail("arbiter: accumulator %d exceeds %d bits", acc, ar.state.M+1)
				return
			}
			ar.state.Accum[i] = uint32(acc)
		}
		ar.rrTherm = r.Uvarint()
	default:
		r.Fail("arbiter: cannot restore %T", a)
	}
}
