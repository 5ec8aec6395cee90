package arbiter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundRobinRotation(t *testing.T) {
	a := NewRoundRobin(4)
	all := uint64(0b1111)
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Pick(all, nil))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := NewRoundRobin(4)
	if g := a.Pick(0b1010, nil); g != 1 {
		t.Fatalf("first grant %d, want 1", g)
	}
	if g := a.Pick(0b1010, nil); g != 3 {
		t.Fatalf("second grant %d, want 3", g)
	}
	if g := a.Pick(0b1010, nil); g != 1 {
		t.Fatalf("third grant %d, want 1 (wrap)", g)
	}
	if g := a.Pick(0, nil); g != -1 {
		t.Fatalf("empty request granted %d", g)
	}
}

func TestRoundRobinLocallyFair(t *testing.T) {
	a := NewRoundRobin(6)
	counts := make([]int, 6)
	for i := 0; i < 6000; i++ {
		g := a.Pick((1<<6)-1, nil)
		counts[g]++
	}
	for i, c := range counts {
		if c != 1000 {
			t.Errorf("input %d granted %d times, want exactly 1000", i, c)
		}
	}
}

func TestFixedPriorityMSB(t *testing.T) {
	a := NewFixedPriority(8)
	if g := a.Pick(0b0010_0110, nil); g != 5 {
		t.Fatalf("grant %d, want 5", g)
	}
	if g := a.Pick(0, nil); g != -1 {
		t.Fatalf("empty grant %d", g)
	}
}

func TestMSB(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, -1}, {1, 0}, {2, 1}, {3, 1}, {1 << 63, 63}, {0xff00, 15},
	}
	for _, c := range cases {
		if got := msb(c.x); got != c.want {
			t.Errorf("msb(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

// validTherm builds a legal thermometer word for k inputs from a boundary.
func validTherm(k int, boundary int) uint64 {
	if boundary <= 0 {
		return 0
	}
	if boundary >= k {
		boundary = k
	}
	return (uint64(1) << uint(boundary)) - 1
}

// TestPrioArbMatchesNaive verifies the Figure 7/8 optimization: the P+1
// fixed-priority-arbiter implementation is grant-for-grant identical to the
// naive 2P-arbiter construction.
func TestPrioArbMatchesNaive(t *testing.T) {
	f := func(reqRaw uint16, priRaw uint32, boundary, levels uint8) bool {
		const k = 12
		p := 1 + int(levels)%MaxPrioLevels
		req := uint64(reqRaw) & ((1 << k) - 1)
		pri := make([]uint8, k)
		for i := 0; i < k; i++ {
			pri[i] = uint8(priRaw>>(2*i)&3) % uint8(p)
		}
		therm := validTherm(k, int(boundary)%(k+1))
		a := PrioArb(k, p, req, pri, therm)
		b := NaivePrioArb(k, p, req, pri, therm)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestPrioArbAllocatesNothing: a pick sits on the cycle kernel's hot path.
func TestPrioArbAllocatesNothing(t *testing.T) {
	pri := []uint8{1, 0, 1, 0, 0, 1}
	if n := testing.AllocsPerRun(100, func() { PrioArb(6, 2, 0b101101, pri, 0b000111) }); n != 0 {
		t.Errorf("PrioArb allocates %.0f objects per pick, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("PrioArb must refuse more than %d priority levels", MaxPrioLevels)
		}
	}()
	PrioArb(6, MaxPrioLevels+1, 1, pri, 0)
}

func TestPrioArbGrantProperties(t *testing.T) {
	f := func(reqRaw uint16, priRaw uint16, boundary uint8) bool {
		const k, p = 10, 2
		req := uint64(reqRaw) & ((1 << k) - 1)
		pri := make([]uint8, k)
		anyHigh := false
		for i := 0; i < k; i++ {
			pri[i] = uint8(priRaw>>i) & 1
			if req&(1<<i) != 0 && pri[i] == 1 {
				anyHigh = true
			}
		}
		therm := validTherm(k, int(boundary)%(k+1))
		g := PrioArb(k, p, req, pri, therm)
		if req == 0 {
			return g == 0
		}
		// One-hot, a requester, and strict priority.
		if g == 0 || g&(g-1) != 0 || g&req == 0 {
			return false
		}
		gi := msb(g)
		if anyHigh && pri[gi] == 0 {
			return false // low-priority input granted over a high one
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNextRRThermIsThermometer(t *testing.T) {
	const k = 9
	for g := 0; g < k; g++ {
		th := NextRRTherm(k, g)
		// Prefix-of-ones property.
		seenZero := false
		for i := 0; i < k; i++ {
			bit := th&(1<<i) != 0
			if bit && seenZero {
				t.Fatalf("NextRRTherm(%d,%d) = %b not a thermometer", k, g, th)
			}
			if !bit {
				seenZero = true
			}
		}
	}
}

// TestPrioArbRoundRobinWithinLevel: with all inputs at equal priority and
// the thermometer updated after each grant, the arbiter cycles through all
// requesters before repeating.
func TestPrioArbRoundRobinWithinLevel(t *testing.T) {
	const k = 5
	pri := make([]uint8, k)
	therm := uint64((1 << k) - 1)
	req := uint64((1 << k) - 1)
	seen := map[int]int{}
	for i := 0; i < 2*k; i++ {
		g := PrioArb(k, 2, req, pri, therm)
		gi := msb(g)
		seen[gi]++
		therm = NextRRTherm(k, gi)
	}
	for i := 0; i < k; i++ {
		if seen[i] != 2 {
			t.Fatalf("input %d granted %d times in 2 full rounds: %v", i, seen[i], seen)
		}
	}
}

func TestAccumUpdateFigure6Semantics(t *testing.T) {
	const m = 5 // accumulators are 6 bits; MSB mask 32
	s := NewAccumState(2, m)

	// Grant to a high-priority input: plain add.
	s.Accum = []uint32{10, 20}
	s.Update(0b01, 7)
	if s.Accum[0] != 17 || s.Accum[1] != 20 {
		t.Fatalf("high-pri grant: accums %v, want [17 20]", s.Accum)
	}

	// Grant to a low-priority input (MSB set): window shifts. Granted
	// input clears MSB then adds; other low-pri inputs clear MSB;
	// high-pri inputs clamp at 0 (underflow).
	s.Accum = []uint32{32 + 5, 12}
	s.Update(0b01, 3)
	if s.Accum[0] != 8 {
		t.Errorf("low-pri grant: accum[0] = %d, want 5+3 = 8", s.Accum[0])
	}
	if s.Accum[1] != 0 {
		t.Errorf("window shift underflow: accum[1] = %d, want clamped 0", s.Accum[1])
	}

	// No grant: unchanged.
	before := append([]uint32(nil), s.Accum...)
	s.Update(0, 9)
	for i := range before {
		if s.Accum[i] != before[i] {
			t.Fatalf("no-grant update changed accumulators")
		}
	}
}

// TestAccumWindowInvariant: accumulators always stay below 2^(M+1).
func TestAccumWindowInvariant(t *testing.T) {
	const k, m = 4, 5
	s := NewAccumState(k, m)
	rng := rand.New(rand.NewSource(1))
	pri := make([]uint8, k)
	therm := uint64((1 << k) - 1)
	for step := 0; step < 20000; step++ {
		req := uint64(rng.Intn(1 << k))
		s.PriInto(pri)
		grant := PrioArb(k, 2, req, pri, therm)
		if grant == 0 {
			continue
		}
		g := msb(grant)
		s.Update(grant, uint32(rng.Intn(1<<m)))
		therm = NextRRTherm(k, g)
		for i, a := range s.Accum {
			if a >= 1<<(m+1) {
				t.Fatalf("step %d: accumulator %d = %d escaped the window", step, i, a)
			}
		}
	}
}

// TestInverseWeightedEoSFigure5 reproduces the Figure 5 example: at arbiter
// A the loads are 1 and 0.5, so input 0 must be granted twice as often;
// at arbiter B the loads are 1.5 and 1 (ratio 3:2).
func TestInverseWeightedEoSFigure5(t *testing.T) {
	cases := []struct {
		name  string
		loads []float64
		want  float64 // grant ratio input0/input1
	}{
		{"arbiterA", []float64{1, 0.5}, 2.0},
		{"arbiterB", []float64{1.5, 1}, 1.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := WeightsFromLoads(c.loads)
			tab := make([][NumPatterns]uint32, len(w))
			for i, wi := range w {
				tab[i] = [NumPatterns]uint32{wi, wi}
			}
			a := NewInverseWeighted(len(w), tab)
			counts := make([]int, len(w))
			const rounds = 30000
			for i := 0; i < rounds; i++ {
				g := a.Pick((1<<len(w))-1, nil)
				counts[g]++
			}
			ratio := float64(counts[0]) / float64(counts[1])
			// The achievable ratio is quantized by the M-bit inverse
			// weights: service is proportional to 1/m exactly.
			quantized := float64(w[1]) / float64(w[0])
			if ratio < quantized*0.99 || ratio > quantized*1.01 {
				t.Errorf("grant ratio = %.3f (counts %v), want quantized %.3f", ratio, counts, quantized)
			}
			// And the quantized ratio must approximate the ideal EoS ratio.
			if quantized < c.want*0.92 || quantized > c.want*1.08 {
				t.Errorf("quantized ratio %.3f too far from ideal %.2f", quantized, c.want)
			}
		})
	}
}

// TestInverseWeightedBlending checks the Section 3.2 claim: with per-pattern
// weights programmed, EoS holds for any blend of the patterns without the
// arbiter knowing the mixing coefficients.
func TestInverseWeightedBlending(t *testing.T) {
	// Pattern 0 loads: input0=2, input1=1. Pattern 1 loads: input0=1,
	// input1=3.
	w0 := WeightsFromLoads([]float64{2, 1})
	w1 := WeightsFromLoads([]float64{1, 3})
	tab := [][NumPatterns]uint32{
		{w0[0], w1[0]},
		{w0[1], w1[1]},
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		a := NewInverseWeighted(2, tab)
		rng := rand.New(rand.NewSource(42))
		// Each input presents an infinite queue of packets whose
		// pattern labels arrive in proportion to the pattern's
		// contribution to that input's blended load (Section 3.2).
		mix := func(l0, l1 float64) func() uint8 {
			p0 := alpha * l0 / (alpha*l0 + (1-alpha)*l1)
			return func() uint8 {
				if rng.Float64() < p0 {
					return 0
				}
				return 1
			}
		}
		next0, next1 := mix(2, 1), mix(1, 3)
		head := [2]uint8{next0(), next1()}
		counts := [2]float64{}
		const rounds = 60000
		for i := 0; i < rounds; i++ {
			g := a.Pick(0b11, head[:])
			counts[g]++
			if g == 0 {
				head[0] = next0()
			} else {
				head[1] = next1()
			}
		}
		// Expected service ratio = blended load ratio.
		want := (alpha*2 + (1-alpha)*1) / (alpha*1 + (1-alpha)*3)
		got := counts[0] / counts[1]
		if got < want*0.93 || got > want*1.07 {
			t.Errorf("alpha=%.2f: service ratio %.3f, want ~%.3f", alpha, got, want)
		}
	}
}

func TestWeightsFromLoads(t *testing.T) {
	w := WeightsFromLoads([]float64{1, 0.5, 0.25, 0})
	// Least positive load gets the max weight; zero load also maxes out.
	maxW := uint32(1<<InverseWeightBits - 1)
	if w[2] != maxW {
		t.Errorf("least-loaded weight = %d, want %d", w[2], maxW)
	}
	if w[3] != maxW {
		t.Errorf("zero-load weight = %d, want %d", w[3], maxW)
	}
	// Weights inversely proportional to loads (within rounding).
	if w[0] >= w[1] || w[1] >= w[2] {
		t.Errorf("weights %v not inversely ordered with loads", w)
	}
	ratio := float64(w[1]) / float64(w[0])
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("w1/w0 = %.2f, want ~2 (half the load)", ratio)
	}

	uniform := WeightsFromLoads([]float64{0, 0})
	if uniform[0] != uniform[1] {
		t.Errorf("all-zero loads should give equal weights, got %v", uniform)
	}
}

// TestInverseWeightedUniformMatchesRoundRobinThroughput: with equal weights
// and saturated inputs, service is equal (like round-robin).
func TestInverseWeightedUniformWeights(t *testing.T) {
	const k = 6
	a := NewInverseWeighted(k, UniformWeights(k))
	counts := make([]int, k)
	for i := 0; i < 6000; i++ {
		counts[a.Pick((1<<k)-1, nil)]++
	}
	for i, c := range counts {
		if c < 900 || c > 1100 {
			t.Errorf("input %d granted %d/6000, want ~1000", i, c)
		}
	}
}

func TestJointWeightsSharedBeta(t *testing.T) {
	// Two patterns with disjoint hot inputs: beta is shared, so weights
	// are comparable across patterns (equation (3) sums weighted service
	// over patterns in one accumulator).
	w := JointWeights([][]float64{
		{2, 1, 0},
		{1, 4, 2},
	})
	if len(w) != 3 {
		t.Fatalf("got %d rows", len(w))
	}
	// Min positive load (1) maps to maxW under both patterns.
	maxW := uint32(1<<InverseWeightBits - 1)
	if w[1][0] != maxW || w[0][1] != maxW {
		t.Errorf("min-load inputs should carry max weight: %v", w)
	}
	// Zero load maps to max weight.
	if w[2][0] != maxW {
		t.Errorf("zero-load input weight = %d", w[2][0])
	}
	// Twice the load -> half the weight (within rounding).
	if ratio := float64(w[1][0]) / float64(w[0][0]); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("pattern-0 weight ratio = %.2f, want ~2", ratio)
	}

	// Degenerate all-zero loads.
	z := JointWeights([][]float64{{0, 0}})
	if z[0][0] != 1 || z[1][0] != 1 {
		t.Errorf("all-zero loads should degenerate to uniform: %v", z)
	}
}

func TestKindStrings(t *testing.T) {
	if KindRoundRobin.String() != "round-robin" || KindInverseWeighted.String() != "inverse-weighted" {
		t.Error("arbiter kind labels wrong")
	}
}

func TestInverseWeightedRejectsBadTables(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized weight must panic")
		}
	}()
	NewInverseWeighted(2, [][NumPatterns]uint32{{64, 1}, {1, 1}})
}
