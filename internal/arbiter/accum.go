package arbiter

// This file is a bit-accurate translation of the accumulator_update
// SystemVerilog module of Figure 6. Each arbiter input i has an (M+1)-bit
// accumulator tracking its weighted service history; the most significant
// bit selects one of two priority levels (clear = high priority, i.e. the
// accumulator sits in the lower half of the sliding window). When a
// low-priority input is granted there can be no high-priority requesters, so
// the window is shifted by subtracting 2^M from every accumulator — realized
// by clearing the MSB, or zeroing entirely in the underflow case.

// accumState holds the accumulators of one inverse-weighted arbiter.
type accumState struct {
	K     int      // input count
	M     int      // inverse-weight bit width; accumulators are M+1 bits
	Accum []uint32 // K accumulators, each < 2^(M+1)
}

// newAccumState returns zeroed accumulators for a k-input arbiter with
// M-bit inverse weights.
func newAccumState(k, m int) *accumState {
	checkK(k)
	if m < 1 || m > 30 {
		panic("arbiter: inverse-weight width out of range")
	}
	return &accumState{K: k, M: m, Accum: make([]uint32, k)}
}

// priInto fills pri (len >= K) with the per-input priority levels: 1 (high)
// when the accumulator's MSB is clear, 0 (low) otherwise.
func (s *accumState) priInto(pri []uint8) {
	msbMask := uint32(1) << uint(s.M)
	for i := 0; i < s.K; i++ {
		if s.Accum[i]&msbMask == 0 {
			pri[i] = 1
		} else {
			pri[i] = 0
		}
	}
}

// update applies the accumulator update rule for a one-hot grant vector and
// the granted input's inverse weight (invWeight < 2^M). It mirrors the
// always_comb block of Figure 6 exactly.
func (s *accumState) update(grant uint64, invWeight uint32) {
	msbMask := uint32(1) << uint(s.M)
	if invWeight >= msbMask {
		panic("arbiter: inverse weight exceeds M bits")
	}
	// low_grant = |(grant & ~pri): the granted input was low priority.
	lowGrant := false
	for i := 0; i < s.K; i++ {
		if grant&(1<<i) != 0 && s.Accum[i]&msbMask != 0 {
			lowGrant = true
		}
	}
	for i := 0; i < s.K; i++ {
		accMSB0 := s.Accum[i] &^ msbMask
		priHigh := s.Accum[i]&msbMask == 0
		switch {
		case grant&(1<<i) != 0:
			s.Accum[i] = accMSB0 + invWeight
		case lowGrant:
			if priHigh {
				s.Accum[i] = 0 // underflow: clamp at zero
			} else {
				s.Accum[i] = accMSB0
			}
		}
	}
}
