package power

import (
	"math"
	"testing"
	"testing/quick"
)

// flitEnergy evaluates the model m for a single flit with Hamming distance h
// to its predecessor, n set payload bits, and activation-to-injection ratio
// aOverR: the paper's per-flit equation, the oracle WindowEnergy and Fit
// are checked against.
func flitEnergy(m Model, h, n, aOverR float64) float64 {
	return m.Fixed + m.PerBitFlip*h + (m.PerActivation+m.PerActSetBit*n)*aOverR
}

func TestPaperModelValues(t *testing.T) {
	// Zero payload, back-to-back stream (a/r -> 0): fixed energy only.
	if e := flitEnergy(PaperModel, 0, 0, 0); e != 42.7 {
		t.Errorf("fixed energy = %g", e)
	}
	// Isolated flits (a/r = 1), random payload h=96, n=64:
	// 42.7 + 0.837*96 + (34.4 + 0.25*64) = 42.7 + 80.352 + 50.4.
	want := 42.7 + 0.837*96 + 34.4 + 0.25*64
	if e := flitEnergy(PaperModel, 96, 64, 1); math.Abs(e-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", e, want)
	}
}

func TestEnergyDecreasesWithRate(t *testing.T) {
	// The Figure 13 shape: per-flit energy falls as injection rate rises
	// past 0.5 (activation ratio a/r = min(r,1-r)/r shrinks).
	prev := math.Inf(1)
	for _, r := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		e := flitEnergy(PaperModel, 96, 64, MaxActivationRate(r)/r)
		if e > prev+1e-9 {
			t.Errorf("energy increased with injection rate at r=%g", r)
		}
		prev = e
	}
	// Below 0.5 with maximized activation, a/r == 1: flat.
	e1 := flitEnergy(PaperModel, 96, 64, MaxActivationRate(0.1)/0.1)
	e2 := flitEnergy(PaperModel, 96, 64, MaxActivationRate(0.4)/0.4)
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("energy should be flat below r=0.5: %g vs %g", e1, e2)
	}
}

func TestWindowEnergyMatchesFlitEnergy(t *testing.T) {
	// A window of F isolated flits with constant payload: per-flit energy
	// from counters must equal the analytic flit energy.
	const flits = 1000
	c := Counters{
		Flits:       flits,
		Activations: flits, // all isolated
		HammingSum:  0,     // constant payload
		SetBitsSum:  64 * flits,
	}
	got := PaperModel.WindowEnergy(c) / flits
	want := flitEnergy(PaperModel, 0, 64, 1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("window per-flit = %g, want %g", got, want)
	}
	if PaperModel.WindowEnergy(Counters{}) != 0 {
		t.Error("empty window should cost nothing")
	}
}

func TestFitRecoversPaperModel(t *testing.T) {
	var samples []Sample
	for _, h := range []float64{0, 48, 96, 192} {
		for _, n := range []float64{0, 64, 128} {
			for _, ar := range []float64{0.1, 0.5, 1.0} {
				samples = append(samples, Sample{
					H: h, N: n, AOverR: ar,
					Energy: flitEnergy(PaperModel, h, n, ar),
				})
			}
		}
	}
	m := Fit(samples)
	if math.Abs(m.Fixed-42.7) > 1e-6 || math.Abs(m.PerBitFlip-0.837) > 1e-8 ||
		math.Abs(m.PerActivation-34.4) > 1e-6 || math.Abs(m.PerActSetBit-0.250) > 1e-8 {
		t.Errorf("fit = %+v", m)
	}
}

func TestMaxActivationRate(t *testing.T) {
	cases := [][2]float64{{0.25, 0.25}, {0.5, 0.5}, {0.75, 0.25}, {1, 0}}
	for _, c := range cases {
		if got := MaxActivationRate(c[0]); math.Abs(got-c[1]) > 1e-12 {
			t.Errorf("MaxActivationRate(%g) = %g, want %g", c[0], got, c[1])
		}
	}
}

// TestStreamGapsProperty: the schedule has exactly p flits in q cycles, and
// its activation count matches the maximal activation rate min(p, q-p).
func TestStreamGapsProperty(t *testing.T) {
	f := func(pRaw, qRaw uint8) bool {
		q := int(qRaw%30) + 2
		p := int(pRaw)%q + 1
		offs := StreamGaps(p, q)
		if len(offs) != p {
			return false
		}
		// Offsets strictly increasing within [0, q).
		valid := make([]bool, q)
		prev := -1
		for _, o := range offs {
			if o <= prev || o >= q {
				return false
			}
			prev = o
			valid[o] = true
		}
		// Count activations over the cyclic schedule.
		acts := 0
		for i := 0; i < q; i++ {
			prevIdx := (i - 1 + q) % q
			if valid[i] && !valid[prevIdx] {
				acts++
			}
		}
		want := p
		if q-p < p {
			want = q - p
		}
		if p == q {
			want = 0
		}
		return acts == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
