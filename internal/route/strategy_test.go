package route

import (
	"math/rand"
	"testing"

	"anton2/internal/topo"
)

// Every shipped scheme is a full Strategy — the only type a routing
// configuration holds.
var (
	_ Strategy = AntonScheme{}
	_ Strategy = BaselineScheme{}
	_ Strategy = VClessScheme{}
	_ Strategy = AngaraStrategy{}
	_ Strategy = NoDatelineScheme{}
)

func TestRegistryShipsFourStrategies(t *testing.T) {
	want := []string{"angara", "anton", "baseline-2n", "vcless"}
	got := StrategyNames()
	if len(got) != len(want) {
		t.Fatalf("StrategyNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StrategyNames() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		s, ok := StrategyByName(name)
		if !ok || s.Name() != name {
			t.Errorf("StrategyByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := StrategyByName("broken-no-dateline"); ok {
		t.Error("the broken scheme must not be registered")
	}
}

// TestStrategyEnumerateWeightsSumToOne: every strategy's admissible-choice
// enumeration is a probability distribution, and each enumerated choice is a
// fixed point of Choose (the distribution really is Choose of uniform).
func TestStrategyEnumerateWeightsSumToOne(t *testing.T) {
	m, err := topo.NewMachine(topo.Shape3(4, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(m)
	for _, strat := range Strategies() {
		cfg.Scheme = strat
		for _, pair := range [][2]int{{0, 0}, {0, 5}, {2, 21}, {7, 16}} {
			a, b := m.Shape.Coord(pair[0]), m.Shape.Coord(pair[1])
			var sum float64
			for _, wc := range strat.Enumerate(m.Shape, a, b) {
				sum += wc.Weight
				src := topo.NodeEp{Node: pair[0]}
				dst := topo.NodeEp{Node: pair[1]}
				if got := strat.Choose(cfg, src, dst, wc.Choices, ClassRequest); got != wc.Choices {
					t.Errorf("%s: enumerated choice %+v is not Choose-stable (got %+v)",
						strat.Name(), wc.Choices, got)
				}
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Errorf("%s: weights for pair %v sum to %g", strat.Name(), pair, sum)
			}
		}
	}
}

// TestVClessNeverWraps: vcless routes travel monotonically — the walk never
// uses a wrap-around torus link, so no dateline is ever crossed and one
// T-group VC suffices. The wrap links are identified by coordinate: a hop
// from k-1 to 0 (positive) or 0 to k-1 (negative).
func TestVClessNeverWraps(t *testing.T) {
	m, err := topo.NewMachine(topo.Shape3(5, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(m)
	cfg.Scheme = VClessScheme{}
	strat := VClessScheme{}
	shape := m.Shape
	for a := 0; a < shape.NumNodes(); a++ {
		for b := 0; b < shape.NumNodes(); b++ {
			src, dst := topo.NodeEp{Node: a, Ep: 1}, topo.NodeEp{Node: b, Ep: 2}
			for _, wc := range strat.Enumerate(shape, shape.Coord(a), shape.Coord(b)) {
				for _, h := range Walk(cfg, src, dst, wc.Order, wc.Slice, wc.Ties, ClassRequest) {
					if h.VC != 0 || !m.IsTorusChan(h.Chan) {
						if m.IsTorusChan(h.Chan) {
							t.Fatalf("vcless torus hop at VC %d", h.VC)
						}
						continue
					}
					node, ad := m.TorusChanOf(h.Chan)
					d := ad.Dir.Dim()
					x, k := m.Shape.Coord(node).Get(d), m.Shape.K[d]
					if (ad.Dir.Sign() > 0 && x == k-1) || (ad.Dir.Sign() < 0 && x == 0) {
						t.Fatalf("vcless route %v->%v crossed wrap link at %s", src, dst, m.ChanName(h.Chan))
					}
				}
			}
		}
	}
}

// TestVClessChooseCanonicalizes: whatever the RNG drew, vcless packets route
// in the fixed X,Y,Z order with canonical tie-breaks; only the slice draw
// survives (both slices stay in play for load balancing).
func TestVClessChooseCanonicalizes(t *testing.T) {
	m, err := topo.NewMachine(topo.Shape3(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(m)
	cfg.Scheme = VClessScheme{}
	rng := rand.New(rand.NewSource(7))
	src, dst := topo.NodeEp{Node: 1}, topo.NodeEp{Node: 30}
	slices := map[uint8]bool{}
	for i := 0; i < 64; i++ {
		c := VClessScheme{}.Choose(cfg, src, dst, RandomChoices(rng), ClassRequest)
		if c.Order != monotoneOrder || c.Ties != canonicalTies {
			t.Fatalf("Choose returned non-canonical %+v", c)
		}
		slices[c.Slice] = true
	}
	if len(slices) != topo.NumSlices {
		t.Errorf("slice randomization lost: saw %v", slices)
	}
}

// TestAngaraAvoidsFailedLinks: with a torus link dead, ChooseAvoiding finds
// an admissible route that misses it, deterministically, and reports
// unreachability honestly when every candidate is severed.
func TestAngaraAvoidsFailedLinks(t *testing.T) {
	m, err := topo.NewMachine(topo.Shape3(4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(m)
	strat := AngaraStrategy{}
	cfg.Scheme = strat
	src, dst := topo.NodeEp{Node: 0, Ep: 3}, topo.NodeEp{Node: 9, Ep: 5}
	rng := rand.New(rand.NewSource(11))

	// Kill one torus channel a healthy random route uses.
	var failed map[int]bool
	var c Choices
	for {
		c = RandomChoices(rng)
		hops := Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, ClassRequest)
		for _, h := range hops {
			if m.IsTorusChan(h.Chan) {
				failed = map[int]bool{h.Chan: true}
				break
			}
		}
		if failed != nil {
			break
		}
	}

	out, ok := strat.ChooseAvoiding(cfg, src, dst, c, ClassRequest, failed)
	if !ok {
		t.Fatal("one dead link should not sever a 4x2x2 torus pair")
	}
	if UsesAny(cfg, src, dst, out, ClassRequest, failed) {
		t.Fatal("ChooseAvoiding returned a route through the failed link")
	}
	// Deterministic: same inputs, same answer.
	again, _ := strat.ChooseAvoiding(cfg, src, dst, c, ClassRequest, failed)
	if again != out {
		t.Fatalf("ChooseAvoiding not deterministic: %+v then %+v", out, again)
	}
	// A healthy route is left alone.
	healthy := Choices{Order: out.Order, Slice: out.Slice, Ties: out.Ties}
	if kept, ok := strat.ChooseAvoiding(cfg, src, dst, healthy, ClassRequest, failed); !ok || kept != healthy {
		t.Fatalf("ChooseAvoiding perturbed a route that already avoids failures: %+v -> %+v", healthy, kept)
	}

	// Sever everything: every torus channel out of the source node dies in
	// both slices and all directions; the pair becomes unroutable.
	all := map[int]bool{}
	for dir := topo.Direction(0); dir < topo.NumDirections; dir++ {
		for s := 0; s < topo.NumSlices; s++ {
			all[m.TorusChanID(0, dir, s)] = true
		}
	}
	if _, ok := strat.ChooseAvoiding(cfg, src, dst, c, ClassRequest, all); ok {
		t.Fatal("fully severed source reported routable")
	}
}

// TestAngaraBalancesAcrossSurvivors: different pairs should not all pile
// onto one surviving candidate — the deterministic hash must spread them.
func TestAngaraBalancesAcrossSurvivors(t *testing.T) {
	m, err := topo.NewMachine(topo.Shape3(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(m)
	strat := AngaraStrategy{}
	cfg.Scheme = strat
	// Fail one X link; pairs whose default route used it re-spread.
	failed := map[int]bool{m.TorusChanID(0, topo.XPos, 0): true}
	picks := map[Choices]int{}
	base := Choices{Order: topo.AllDimOrders[0], Slice: 0, Ties: [3]int8{1, 1, 1}}
	for ep := 0; ep < topo.NumEndpoints; ep++ {
		for b := 1; b < m.Shape.NumNodes(); b++ {
			src, dst := topo.NodeEp{Node: 0, Ep: ep}, topo.NodeEp{Node: b, Ep: ep}
			if !UsesAny(cfg, src, dst, base, ClassRequest, failed) {
				continue
			}
			out, ok := strat.ChooseAvoiding(cfg, src, dst, base, ClassRequest, failed)
			if !ok {
				t.Fatalf("pair %v->%v unroutable around one link", src, dst)
			}
			picks[out]++
		}
	}
	if len(picks) < 2 {
		t.Errorf("all rerouted pairs picked the same survivor: %v", picks)
	}
}
