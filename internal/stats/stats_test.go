package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = 80.7 + 39.1*xi // the paper's Figure 11 fit
	}
	slope, intercept, r2 := LinearFit(x, y)
	if math.Abs(slope-39.1) > 1e-9 || math.Abs(intercept-80.7) > 1e-9 {
		t.Errorf("fit = %g + %g x", intercept, slope)
	}
	if r2 < 0.999999 {
		t.Errorf("r2 = %g for exact line", r2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 5+2*xi+rng.NormFloat64()*0.5)
	}
	slope, intercept, r2 := LinearFit(x, y)
	if math.Abs(slope-2) > 0.05 || math.Abs(intercept-5) > 1 {
		t.Errorf("fit = %g + %g x", intercept, slope)
	}
	if r2 < 0.99 {
		t.Errorf("r2 = %g", r2)
	}
}

func TestLeastSquaresRecoversModel(t *testing.T) {
	// Generate samples from the paper's energy model form:
	// E = c0 + c1*h + c2*(a/r) + c3*n*(a/r).
	truth := []float64{42.7, 0.837, 34.4, 0.250}
	rng := rand.New(rand.NewSource(2))
	var rows [][]float64
	var b []float64
	for i := 0; i < 100; i++ {
		h := rng.Float64() * 192
		ar := rng.Float64()
		n := rng.Float64() * 128
		rows = append(rows, []float64{1, h, ar, n * ar})
		b = append(b, truth[0]+truth[1]*h+truth[2]*ar+truth[3]*n*ar)
	}
	w := LeastSquares(rows, b)
	for i := range truth {
		if math.Abs(w[i]-truth[i]) > 1e-6 {
			t.Errorf("coefficient %d = %g, want %g", i, w[i], truth[i])
		}
	}
}

// TestMeanStddev checks Mean, the one moment the package computes.
func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := Percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %g", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Errorf("p100 = %g", p)
	}
	if p := Percentile(xs, 1); p != 1 {
		t.Errorf("p1 = %g", p)
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal shares: %g", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("single hog: %g, want 0.25", j)
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndexDegenerate(t *testing.T) {
	// Empty and all-zero inputs mean "no traffic", which is trivially fair;
	// both must report 1 rather than 0/0.
	if j := JainIndex(nil); j != 1 {
		t.Errorf("JainIndex(nil) = %g, want 1", j)
	}
	if j := JainIndex([]float64{}); j != 1 {
		t.Errorf("JainIndex(empty) = %g, want 1", j)
	}
	if j := JainIndex([]float64{0, 0, 0}); j != 1 {
		t.Errorf("JainIndex(zeros) = %g, want 1", j)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if h.Total != 100 {
		t.Fatalf("total = %d", h.Total)
	}
	med := h.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Errorf("median ~ %g", med)
	}
	h.Add(-5)  // clamps low
	h.Add(500) // clamps high
	if h.Counts[0] != 11 || h.Counts[9] != 11 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
}

// TestHistogramEdges pins the histogram's behavior at every boundary the
// telemetry occupancy sampler can hit: extreme quantiles, clamping at both
// ends (including infinities), and empty data.
func TestHistogramEdges(t *testing.T) {
	cases := []struct {
		name string
		add  []float64
		q    float64
		want float64
	}{
		// Quantiles of an empty histogram collapse to Min.
		{"empty-q0", nil, 0, 0},
		{"empty-q1", nil, 1, 0},
		// q=1 reports the histogram's upper bound.
		{"full-q1", []float64{10, 20, 30}, 1, 100},
		// Out-of-range values clamp into the terminal bins (midpoints 5
		// and 95 for a 0..100 histogram with 10 bins).
		{"below-min", []float64{-1e12}, 0, 5},
		{"above-max", []float64{1e12}, 0, 95},
		{"neg-inf", []float64{math.Inf(-1)}, 0, 5},
		{"pos-inf", []float64{math.Inf(1)}, 0, 95},
		// A value exactly at Max lands in the last bin, not out of range.
		{"at-max", []float64{100}, 0, 95},
		{"at-min", []float64{0}, 0, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(0, 100, 10)
			for _, x := range c.add {
				h.Add(x)
			}
			if got := h.Quantile(c.q); got != c.want {
				t.Errorf("Quantile(%g) = %g, want %g (counts %v)", c.q, got, c.want, h.Counts)
			}
			if h.Total != uint64(len(c.add)) {
				t.Errorf("total = %d, want %d", h.Total, len(c.add))
			}
		})
	}
}

// TestHistogramAddNaN: NaN must be dropped deterministically — Go leaves
// float-to-int conversion of NaN implementation-defined, so recording it
// would make histograms (and the telemetry reports built on them) differ
// across platforms.
func TestHistogramAddNaN(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	h.Add(math.NaN())
	if h.Total != 0 {
		t.Fatalf("NaN was recorded: total %d, counts %v", h.Total, h.Counts)
	}
	h.Add(3)
	h.Add(math.NaN())
	if h.Total != 1 || h.Counts[1] != 1 {
		t.Errorf("NaN perturbed the histogram: total %d, counts %v", h.Total, h.Counts)
	}
}
