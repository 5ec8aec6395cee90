package arbiter

// This file is a bit-accurate translation of the accumulator_update
// SystemVerilog module of Figure 6. Each arbiter input i has an (M+1)-bit
// accumulator tracking its weighted service history; the most significant
// bit selects one of two priority levels (clear = high priority, i.e. the
// accumulator sits in the lower half of the sliding window). When a
// low-priority input is granted there can be no high-priority requesters, so
// the window is shifted by subtracting 2^M from every accumulator — realized
// by clearing the MSB, or zeroing entirely in the underflow case.

// accumMSB is the accumulators' most significant bit: M = inverseWeightBits,
// so accumulators are M+1 bits.
const accumMSB = uint32(1) << inverseWeightBits

// priInto fills pri (len >= len(acc)) with the per-input priority levels of
// accumulators acc: 1 (high) when the accumulator's MSB is clear, 0 (low)
// otherwise.
func priInto(acc []uint32, pri []uint8) {
	for i, v := range acc {
		if v&accumMSB == 0 {
			pri[i] = 1
		} else {
			pri[i] = 0
		}
	}
}

// updateAccum applies the accumulator update rule to acc for a one-hot grant
// vector and the granted input's inverse weight (invWeight < 2^M). It
// mirrors the always_comb block of Figure 6 exactly.
func updateAccum(acc []uint32, grant uint64, invWeight uint32) {
	if invWeight >= accumMSB {
		panic("arbiter: inverse weight exceeds M bits")
	}
	// low_grant = |(grant & ~pri): the granted input was low priority.
	lowGrant := false
	for i, v := range acc {
		if grant&(1<<i) != 0 && v&accumMSB != 0 {
			lowGrant = true
		}
	}
	for i, v := range acc {
		accMSB0 := v &^ accumMSB
		priHigh := v&accumMSB == 0
		switch {
		case grant&(1<<i) != 0:
			acc[i] = accMSB0 + invWeight
		case lowGrant:
			if priHigh {
				acc[i] = 0 // underflow: clamp at zero
			} else {
				acc[i] = accMSB0
			}
		}
	}
}
