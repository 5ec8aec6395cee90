package traffic

import (
	"math"
	"math/rand"
	"testing"

	"anton2/internal/topo"
)

// chiSquareVsFlows draws destinations for a node-0 source and tests
// agreement with the enumerated Flows distribution. deff is the design
// effect for correlated draws (1 for iid patterns, ~2·Len for bursty runs:
// clustered sampling inflates the χ² statistic by roughly the mean cluster
// size). The critical value is the Wilson–Hilferty approximation at p≈0.001;
// seeds are fixed, so the tests are deterministic.
func chiSquareVsFlows(t *testing.T, m *topo.Machine, p Pattern, srcEp, draws int, deff float64, rng *rand.Rand) {
	t.Helper()
	src := topo.NodeEp{Node: 0, Ep: srcEp}
	expected := map[topo.NodeEp]float64{}
	for _, f := range p.Flows(m)(srcEp) {
		expected[f.Dst] += f.Frac * float64(draws)
	}
	for dst, exp := range expected {
		if exp < 5 {
			t.Fatalf("%s: expected count %.2f for %v too small for χ²; raise draws", p.Name(), exp, dst)
		}
	}
	observed := map[topo.NodeEp]int{}
	for i := 0; i < draws; i++ {
		d := p.Dest(m, src, rng)
		if expected[d] == 0 {
			t.Fatalf("%s: drew %v outside the enumerated flow support", p.Name(), d)
		}
		observed[d]++
	}
	chi2 := 0.0
	for dst, exp := range expected {
		diff := float64(observed[dst]) - exp
		chi2 += diff * diff / exp
	}
	df := float64(len(expected) - 1)
	z := 3.09 // p ≈ 0.001
	crit := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
	if chi2 > deff*crit {
		t.Errorf("%s: χ² = %.1f exceeds %.1f (df = %.0f, deff = %g)", p.Name(), chi2, deff*crit, df, deff)
	}
}

// TestChiSquareUniformBaseline sanity-checks the harness itself on an iid
// pattern before trusting it on the new generators.
func TestChiSquareUniformBaseline(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 2))
	chiSquareVsFlows(t, m, Uniform{}, m.Chip.CoreEndpoints()[0], 40000, 1, rand.New(rand.NewSource(11)))
}

// TestChiSquareBursty: the bursty wrapper's marginal destination
// distribution matches its inner pattern's Flows. Draws within a burst are
// correlated, hence the 2·Len design effect.
func TestChiSquareBursty(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 2))
	p := NewBursty(NHop{N: 1}, 4)
	chiSquareVsFlows(t, m, p, m.Chip.CoreEndpoints()[3], 40000, 2*float64(p.Len), rand.New(rand.NewSource(12)))
}

func TestAppShapeFlowsSumToOne(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 4))
	for _, p := range []Pattern{
		NewBursty(Uniform{}, 4),
		NewBursty(NHop{N: 2}, 8),
	} {
		checkFlowsSumToOne(t, m, p)
	}
}

// TestBurstyRunLengths: consecutive same-destination runs have mean length
// close to Len.
func TestBurstyRunLengths(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 2))
	p := NewBursty(Uniform{}, 6)
	rng := rand.New(rand.NewSource(14))
	src := topo.NodeEp{Node: 0, Ep: m.Chip.CoreEndpoints()[0]}
	const draws = 30000
	runs := 0
	var prev topo.NodeEp
	for i := 0; i < draws; i++ {
		d := p.Dest(m, src, rng)
		if i == 0 || d != prev {
			runs++
		}
		prev = d
	}
	mean := float64(draws) / float64(runs)
	if math.Abs(mean-float64(p.Len)) > 0.15*float64(p.Len) {
		t.Errorf("mean run length %.2f, want ~%d", mean, p.Len)
	}
}

// TestBurstyPerSourceIndependence: two sources sharing one Bursty value but
// holding distinct rngs burst independently (state is keyed per rng).
func TestBurstyPerSourceIndependence(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 2))
	p := NewBursty(Uniform{}, 1_000_000) // huge bursts: each source should stick to one dest
	srcA := topo.NodeEp{Node: 0, Ep: m.Chip.CoreEndpoints()[0]}
	srcB := topo.NodeEp{Node: 1, Ep: m.Chip.CoreEndpoints()[0]}
	rngA := rand.New(rand.NewSource(15))
	rngB := rand.New(rand.NewSource(16))
	dstA := p.Dest(m, srcA, rngA)
	dstB := p.Dest(m, srcB, rngB)
	for i := 0; i < 50; i++ {
		if d := p.Dest(m, srcA, rngA); d != dstA {
			t.Fatalf("source A burst broke at draw %d (p = 1e-6)", i)
		}
		if d := p.Dest(m, srcB, rngB); d != dstB {
			t.Fatalf("source B burst broke at draw %d (p = 1e-6)", i)
		}
	}
}
