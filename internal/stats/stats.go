// Package stats provides the small statistical toolkit used by the
// measurement harness: linear least squares (latency-vs-hops and energy
// model fits), summary statistics, fairness indices, and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// LinearFit fits y = intercept + slope*x by ordinary least squares and
// returns the coefficient of determination r2.
func LinearFit(x, y []float64) (slope, intercept, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs >= 2 equal-length samples")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return slope, intercept, 1
	}
	var ssRes float64
	for i := range x {
		d := y[i] - (intercept + slope*x[i])
		ssRes += d * d
	}
	return slope, intercept, 1 - ssRes/ssTot
}

// LeastSquares solves min ||A w - b||^2 for w via normal equations with
// Gaussian elimination; used to refit the multi-term router energy model.
func LeastSquares(a [][]float64, b []float64) []float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("stats: LeastSquares dimension mismatch")
	}
	k := len(a[0])
	// Normal equations: (A^T A) w = A^T b.
	ata := make([][]float64, k)
	atb := make([]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	for r := range a {
		if len(a[r]) != k {
			panic("stats: ragged design matrix")
		}
		for i := 0; i < k; i++ {
			atb[i] += a[r][i] * b[r]
			for j := 0; j < k; j++ {
				ata[i][j] += a[r][i] * a[r][j]
			}
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[piv][col]) {
				piv = r
			}
		}
		ata[col], ata[piv] = ata[piv], ata[col]
		atb[col], atb[piv] = atb[piv], atb[col]
		if math.Abs(ata[col][col]) < 1e-12 {
			panic(fmt.Sprintf("stats: singular normal matrix at column %d", col))
		}
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := ata[r][col] / ata[col][col]
			for c := col; c < k; c++ {
				ata[r][c] -= f * ata[col][c]
			}
			atb[r] -= f * atb[col]
		}
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = atb[i] / ata[i][i]
	}
	return w
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) by nearest-rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// JainIndex computes Jain's fairness index: 1 means perfectly equal shares,
// 1/n means one participant gets everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Histogram bins values into n equal-width buckets over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	Total    uint64
}

// NewHistogram builds an empty histogram.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins < 1 || max <= min {
		panic("stats: bad histogram shape")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, bins)}
}

// Add records a value, clamping out-of-range (including ±Inf) values into
// the first or last bin. NaN is dropped: float-to-int conversion of NaN is
// implementation-defined in Go, so clamping in float space before converting
// keeps the histogram deterministic across platforms.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := 0
	if x > h.Min {
		f := float64(len(h.Counts)) * (x - h.Min) / (h.Max - h.Min)
		if f >= float64(len(h.Counts)) {
			i = len(h.Counts) - 1
		} else {
			i = int(f)
		}
	}
	h.Counts[i]++
	h.Total++
}

// Quantile returns an approximate quantile from the binned data.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Total == 0 {
		return h.Min
	}
	target := uint64(q * float64(h.Total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			w := (h.Max - h.Min) / float64(len(h.Counts))
			return h.Min + w*(float64(i)+0.5)
		}
	}
	return h.Max
}
