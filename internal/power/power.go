// Package power implements the router energy model of Section 4.5:
//
//	E = 42.7 + 0.837*h + (34.4 + 0.250*n) * (a/r)  pJ per flit
//
// where h is the average Hamming distance between successive valid flits, n
// the average number of set payload bits per flit, r the injection rate, and
// a the activation rate (idle-to-valid transitions per cycle). The first two
// terms capture per-flit transport energy; the remainder is activation
// energy (valid trees and clock gates toggling), which the paper identifies
// as a significant fraction at low packet rates.
package power

import "anton2/internal/stats"

// Model holds the energy coefficients, in picojoules.
type Model struct {
	// Fixed is the data-independent per-flit energy (arbitration,
	// control).
	Fixed float64
	// PerBitFlip is the datapath energy per toggled bit between
	// successive valid flits.
	PerBitFlip float64
	// PerActivation is the fixed energy of an idle-to-valid transition.
	PerActivation float64
	// PerActSetBit is the activation energy per set payload bit.
	PerActSetBit float64
}

// PaperModel is the fit the paper reports for the Anton 2 router.
var PaperModel = Model{Fixed: 42.7, PerBitFlip: 0.837, PerActivation: 34.4, PerActSetBit: 0.250}

// Counters mirrors the per-channel event counts maintained by the fabric.
type Counters struct {
	Flits       uint64
	Activations uint64
	HammingSum  uint64
	SetBitsSum  uint64
}

// Add accumulates another window of counters.
func (c *Counters) Add(o Counters) {
	c.Flits += o.Flits
	c.Activations += o.Activations
	c.HammingSum += o.HammingSum
	c.SetBitsSum += o.SetBitsSum
}

// WindowEnergy converts counted events to total energy in pJ: fixed and
// bit-flip energy per flit plus activation energy per activation, using the
// window's mean set-bit count for the data-dependent activation term.
func (m Model) WindowEnergy(c Counters) float64 {
	if c.Flits == 0 {
		return 0
	}
	nBar := float64(c.SetBitsSum) / float64(c.Flits)
	return m.Fixed*float64(c.Flits) +
		m.PerBitFlip*float64(c.HammingSum) +
		(m.PerActivation+m.PerActSetBit*nBar)*float64(c.Activations)
}

// Sample is one energy measurement point for model fitting: a stream with
// mean Hamming distance H, mean set bits N, activation ratio AOverR, and the
// measured per-flit energy.
type Sample struct {
	H, N, AOverR float64
	Energy       float64
}

// Fit recovers model coefficients from measurements by least squares over
// the regressors [1, h, a/r, n*(a/r)] — the same functional form the paper
// fits to its silicon measurements (Figure 13's dotted curves).
func Fit(samples []Sample) Model {
	rows := make([][]float64, len(samples))
	b := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{1, s.H, s.AOverR, s.N * s.AOverR}
		b[i] = s.Energy
	}
	w := stats.LeastSquares(rows, b)
	return Model{Fixed: w[0], PerBitFlip: w[1], PerActivation: w[2], PerActSetBit: w[3]}
}

// MaxActivationRate returns the largest possible activation rate for an
// injection rate r: a <= min(r, 1-r). The paper's measurements maximize a to
// emphasize its impact.
func MaxActivationRate(r float64) float64 {
	if r <= 0.5 {
		return r
	}
	return 1 - r
}

// StreamGaps returns a cyclic injection schedule achieving injection rate
// p/q with the maximum activation rate: for r <= 1/2, isolated flits evenly
// spaced; for r > 1/2, runs of flits separated by single idle cycles. The
// return value is the cycle offsets of valid flits within a period of q.
func StreamGaps(p, q int) []int {
	if p <= 0 || q <= 0 || p > q {
		panic("power: invalid stream rate")
	}
	out := make([]int, 0, p)
	if p == q {
		// Fully back-to-back stream: every cycle valid, zero
		// activations after the first.
		for i := 0; i < p; i++ {
			out = append(out, i)
		}
		return out
	}
	if 2*p <= q {
		// Isolated flits: spread p flits over q cycles.
		for i := 0; i < p; i++ {
			out = append(out, i*q/p)
		}
		return out
	}
	// Runs separated by single idle cycles: q-p idle cycles split the
	// period into q-p runs.
	idle := q - p
	pos := 0
	for g := 0; g < idle; g++ {
		runLen := (p + g) / idle // distribute p flits over idle runs
		for i := 0; i < runLen; i++ {
			out = append(out, pos)
			pos++
		}
		pos++ // idle cycle
	}
	return out
}
