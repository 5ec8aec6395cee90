package arbiter

import "math"

// InverseWeightBits is M, the inverse-weight bit width of the Anton 2
// implementation; accumulators are M+1 bits and the sliding window spans
// 2^(M+1) values.
const InverseWeightBits = 5

// NumPatterns is N, the number of simultaneously supported traffic patterns;
// each packet header carries a field identifying its pattern (Section 3.3).
const NumPatterns = 2

// InverseWeighted is the inverse-weighted arbiter of Section 3. Each input
// stores one precomputed inverse weight per traffic pattern,
// m[i][n] = nint(beta / gamma[i][n]); an accumulator per input tracks
// weighted service, and the input with its accumulator in the lower half of
// the sliding window is served first, achieving equality of service across
// any blend of the N patterns.
type InverseWeighted struct {
	k       int
	weights [][NumPatterns]uint32
	state   *AccumState
	rrTherm uint64
	pri     []uint8
}

// NewInverseWeighted builds an arbiter over k inputs with the given per-input
// per-pattern inverse weights (each < 2^InverseWeightBits).
func NewInverseWeighted(k int, weights [][NumPatterns]uint32) *InverseWeighted {
	checkK(k)
	if len(weights) != k {
		panic("arbiter: weight table size mismatch")
	}
	for _, w := range weights {
		for _, m := range w {
			if m >= 1<<InverseWeightBits {
				panic("arbiter: inverse weight exceeds M bits")
			}
		}
	}
	a := &InverseWeighted{
		k:       k,
		weights: weights,
		state:   NewAccumState(k, InverseWeightBits),
		rrTherm: (uint64(1) << uint(k)) - 1,
		pri:     make([]uint8, k),
	}
	return a
}

// K implements Arbiter.
func (a *InverseWeighted) K() int { return a.k }

// Pick implements Arbiter: priorities come from the accumulator MSBs, the
// grant from the two-level prioritized arbiter of Figure 8, and the
// accumulator update from Figure 6 using the granted packet's pattern.
func (a *InverseWeighted) Pick(req uint64, pats []uint8) int {
	if req == 0 {
		return -1
	}
	a.state.PriInto(a.pri)
	grant := PrioArb(a.k, 2, req, a.pri, a.rrTherm)
	if grant == 0 {
		return -1
	}
	g := msb(grant)
	n := uint8(0)
	if pats != nil {
		n = pats[g]
	}
	if n >= NumPatterns {
		n = NumPatterns - 1
	}
	a.state.Update(grant, a.weights[g][n])
	a.rrTherm = NextRRTherm(a.k, g)
	return g
}

// WeightsFromLoads converts per-input loads for one traffic pattern into
// inverse weights: m_i = nint(beta * (1/gamma_i)), with beta scaled so the
// largest weight fits in M bits. Inputs with zero load get the maximum
// weight (they receive service only when nothing else requests).
func WeightsFromLoads(loads []float64) []uint32 {
	maxW := uint32(1<<InverseWeightBits - 1)
	// beta = minLoad * maxW makes the least-loaded input's weight ~maxW.
	minLoad := math.Inf(1)
	for _, g := range loads {
		if g > 0 && g < minLoad {
			minLoad = g
		}
	}
	out := make([]uint32, len(loads))
	if math.IsInf(minLoad, 1) {
		for i := range out {
			out[i] = 1 // no information: degenerate to round-robin-like
		}
		return out
	}
	beta := minLoad * float64(maxW)
	for i, g := range loads {
		if g <= 0 {
			out[i] = maxW
			continue
		}
		w := uint32(math.Round(beta / g))
		if w < 1 {
			w = 1
		}
		if w > maxW {
			w = maxW
		}
		out[i] = w
	}
	return out
}

// JointWeights converts per-pattern input loads into an inverse-weight
// table. loads[n][i] is the load on input i under traffic pattern n. The
// scale factor beta is shared across patterns — the accumulator of equation
// (3) sums weighted service over patterns, so all weights at one arbiter
// must use a single beta. Patterns beyond len(loads) reuse pattern 0's
// weights.
func JointWeights(loads [][]float64) [][NumPatterns]uint32 {
	if len(loads) == 0 || len(loads) > NumPatterns {
		panic("arbiter: JointWeights needs 1..NumPatterns load vectors")
	}
	k := len(loads[0])
	maxW := float64(uint32(1)<<InverseWeightBits - 1)
	minLoad := math.Inf(1)
	for _, lv := range loads {
		if len(lv) != k {
			panic("arbiter: pattern load vectors differ in length")
		}
		for _, g := range lv {
			if g > 0 && g < minLoad {
				minLoad = g
			}
		}
	}
	out := make([][NumPatterns]uint32, k)
	if math.IsInf(minLoad, 1) {
		for i := range out {
			for n := range out[i] {
				out[i][n] = 1
			}
		}
		return out
	}
	beta := minLoad * maxW
	for i := range out {
		for n := 0; n < NumPatterns; n++ {
			lv := loads[0]
			if n < len(loads) {
				lv = loads[n]
			}
			g := lv[i]
			if g <= 0 {
				out[i][n] = uint32(maxW)
				continue
			}
			w := math.Round(beta / g)
			if w < 1 {
				w = 1
			}
			if w > maxW {
				w = maxW
			}
			out[i][n] = uint32(w)
		}
	}
	return out
}

// UniformWeights returns weight tables that make the inverse-weighted
// arbiter serve all inputs equally (useful as a neutral default).
func UniformWeights(k int) [][NumPatterns]uint32 {
	w := make([][NumPatterns]uint32, k)
	for i := range w {
		for n := range w[i] {
			w[i][n] = 1
		}
	}
	return w
}
