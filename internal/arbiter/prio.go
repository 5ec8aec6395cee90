package arbiter

import "math/bits"

// This file is a bit-accurate translation of the priority_arb SystemVerilog
// module of Figure 8: a k-input arbiter with P priority levels and
// round-robin tie-breaking. The round-robin state is thermometer-encoded
// (rrTherm[i] implies rrTherm[i-1]), and the fixed-priority rule is applied
// to P+1 unrolled request vectors — the optimization of Figure 7, which
// needs only P+1 fixed-priority arbiters instead of 2P because adjacent
// unrolled vectors are mutually exclusive after the round-robin split.

// MaxPrioLevels bounds P: the unrolled request vectors live in a fixed-size
// array so a pick allocates nothing (the inverse-weighted arbiter, the only
// production caller, has P = 2).
const MaxPrioLevels = 4

// PrioArb computes the grant vector for the request vector req (k bits),
// per-input priority levels pri (each in [0, P)), and thermometer-encoded
// round-robin state rrTherm. It mirrors the hardware exactly, including the
// parallel-prefix (Kogge-Stone) cancellation network.
func PrioArb(k, p int, req uint64, pri []uint8, rrTherm uint64) uint64 {
	if k < 1 || k > MaxInputs {
		panic("arbiter: PrioArb width out of range")
	}
	if p < 1 || p > MaxPrioLevels {
		panic("arbiter: PrioArb priority level count out of range")
	}
	// req_unroll[l][i] = req[i] && ( {pri[i], rr_therm[i]} >= 2l-1 ), with
	// req_unroll[0] = req. The concatenation {pri, rr} for priority level
	// pr and thermometer bit th has value 2*pr + th, so input i appears in
	// the unrolled vectors 1..(code+1)/2.
	var unroll [MaxPrioLevels + 1]uint64
	unroll[0] = req
	for r := req & (uint64(1)<<uint(k) - 1); r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		code := 2*int(pri[i]) + int(rrTherm>>i&1)
		for l := min((code+1)/2, p); l >= 1; l-- {
			unroll[l] |= 1 << i
		}
	}

	// Flatten into a single (p+1)*k-bit vector, most significant request
	// wins. Cancellation: higher_pri_req = prefix-OR of everything above.
	// We model the flattened vector with a big.Int-free approach: walk the
	// unrolled vectors from the top and grant the MSB of the first
	// non-empty one; this is exactly what the prefix network computes.
	for l := p; l >= 0; l-- {
		if unroll[l] != 0 {
			return 1 << uint(msb(unroll[l]))
		}
	}
	return 0
}

// NaivePrioArb is the typical approach of [17] that Figure 7 improves on: a
// separate round-robin arbiter per priority level (each built from two
// fixed-priority arbiters over the pointer-split request vectors), with the
// per-level results combined highest-level-first. It exists as a reference
// implementation for equivalence testing against PrioArb.
func NaivePrioArb(k, p int, req uint64, pri []uint8, rrTherm uint64) uint64 {
	for level := p - 1; level >= 0; level-- {
		var levelReq uint64
		for i := 0; i < k; i++ {
			if req&(1<<i) != 0 && int(pri[i]) == level {
				levelReq |= 1 << i
			}
		}
		if levelReq == 0 {
			continue
		}
		// Round-robin split: the thermometer segment (at or below the
		// pointer) has precedence, MSB first within each segment.
		if hi := levelReq & rrTherm; hi != 0 {
			return 1 << uint(msb(hi))
		}
		return 1 << uint(msb(levelReq))
	}
	return 0
}

// NextRRTherm returns the updated thermometer state after granting input g:
// the granted input becomes the lowest-precedence requester, i.e. the
// pointer moves just below it.
func NextRRTherm(k, g int) uint64 {
	if g <= 0 {
		// Wrap: everything is at or below the (k-1) pointer.
		return (uint64(1) << uint(k)) - 1
	}
	return (uint64(1) << uint(g)) - 1
}
