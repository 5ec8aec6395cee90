package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anton2/internal/topo"
)

func cfgFor(t testing.TB, shape topo.TorusShape, scheme Strategy) *Config {
	t.Helper()
	m, err := topo.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConfig(m)
	c.Scheme = scheme
	return c
}

func TestSchemeVCCounts(t *testing.T) {
	if got := (AntonScheme{}).TorusVCs(); got != 4 {
		t.Errorf("Anton scheme T-group VCs = %d, want n+1 = 4", got)
	}
	if got := (BaselineScheme{}).TorusVCs(); got != 6 {
		t.Errorf("baseline scheme T-group VCs = %d, want 2n = 6", got)
	}
	// The paper's headline: one-third fewer T-group VCs.
	if 3*(AntonScheme{}).TorusVCs() != 2*(BaselineScheme{}).TorusVCs() {
		t.Error("Anton scheme must reduce T-group VCs by one-third")
	}
}

func TestAntonSchemeIncrementsOncePerDim(t *testing.T) {
	s := AntonScheme{}
	// Travel with a dateline crossing: increment happens at the dateline,
	// not again at exit.
	tvc := s.EnterDim(0, 0)
	tvc = s.CrossDateline(tvc)
	if mvc := s.ExitDim(tvc, 0, 0, true, true); mvc != 1 {
		t.Errorf("crossed-dim exit MVC = %d, want 1", mvc)
	}
	// Travel without crossing: increment at exit.
	tvc = s.EnterDim(1, 1)
	if mvc := s.ExitDim(tvc, 1, 1, true, false); mvc != 2 {
		t.Errorf("uncrossed-dim exit MVC = %d, want 2", mvc)
	}
	// No travel: no increment.
	if mvc := s.ExitDim(0, 2, 2, false, false); mvc != 2 {
		t.Errorf("untraveled-dim exit MVC = %d, want unchanged 2", mvc)
	}
}

// walkEndToEnd checks a route's invariants and returns it.
func walkEndToEnd(t *testing.T, cfg *Config, src, dst topo.NodeEp, c Choices) []Hop {
	t.Helper()
	hops := Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, ClassRequest)
	m := cfg.Machine
	torusHops := 0
	for _, h := range hops {
		g := m.ChanGroup(h.Chan)
		if int(h.VC) >= ChannelVCs(cfg.Scheme, g) {
			t.Fatalf("%v->%v %+v: VC %d exceeds %s-group budget %d on %s",
				src, dst, c, h.VC, g, ChannelVCs(cfg.Scheme, g), m.ChanName(h.Chan))
		}
		if m.IsTorusChan(h.Chan) {
			torusHops++
		}
	}
	if want := interNodeHopsFor(cfg.Scheme, m.Shape, src, dst); torusHops != want {
		t.Fatalf("%v->%v %+v: %d torus hops, want minimal %d", src, dst, c, torusHops, want)
	}
	return hops
}

func TestWalkAllPairsSmallTorus(t *testing.T) {
	for _, scheme := range []Strategy{AntonScheme{}, BaselineScheme{}} {
		cfg := cfgFor(t, topo.Shape3(3, 2, 2), scheme)
		n := cfg.Machine.NumNodes()
		rng := rand.New(rand.NewSource(7))
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				src := topo.NodeEp{Node: a, Ep: rng.Intn(topo.NumEndpoints)}
				dst := topo.NodeEp{Node: b, Ep: rng.Intn(topo.NumEndpoints)}
				for _, wc := range enumerateChoices(cfg.Machine.Shape, cfg.Machine.Shape.Coord(a), cfg.Machine.Shape.Coord(b)) {
					walkEndToEnd(t, cfg, src, dst, wc.Choices)
				}
			}
		}
	}
}

func TestWalkRandomPairsLargerTorus(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(8, 8, 8), AntonScheme{})
	rng := rand.New(rand.NewSource(11))
	n := cfg.Machine.NumNodes()
	for i := 0; i < 2000; i++ {
		src := topo.NodeEp{Node: rng.Intn(n), Ep: rng.Intn(topo.NumEndpoints)}
		dst := topo.NodeEp{Node: rng.Intn(n), Ep: rng.Intn(topo.NumEndpoints)}
		walkEndToEnd(t, cfg, src, dst, RandomChoices(rng))
	}
}

func TestWalkIntraNodeRoute(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(2, 2, 2), AntonScheme{})
	src := topo.NodeEp{Node: 3, Ep: 0}
	dst := topo.NodeEp{Node: 3, Ep: 22}
	hops := walkEndToEnd(t, cfg, src, dst, Choices{Order: topo.AllDimOrders[0], Ties: [3]int8{1, 1, 1}})
	for _, h := range hops {
		if cfg.Machine.IsTorusChan(h.Chan) {
			t.Fatalf("intra-node route uses torus channel %s", cfg.Machine.ChanName(h.Chan))
		}
		if cfg.Machine.ChanGroup(h.Chan) != topo.GroupM {
			t.Fatalf("intra-node route leaves the M-group on %s", cfg.Machine.ChanName(h.Chan))
		}
		if h.VC != 0 {
			t.Fatalf("intra-node route should stay on VC 0, used %d", h.VC)
		}
	}
}

// TestYThroughTraversesOneRouter reproduces the paper's example: a packet
// traveling along Y- on slice 0 passes through a single router (R0,2) at
// each intermediate node.
func TestYThroughTraversesOneRouter(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(2, 8, 2), AntonScheme{})
	m := cfg.Machine
	// Route with 3 hops in Y- so there are intermediate nodes.
	src := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{Y: 3}), Ep: 0}
	dst := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{Y: 0}), Ep: 0}
	c := Choices{Order: topo.DimOrder{topo.DimY, topo.DimX, topo.DimZ}, Slice: 0, Ties: [3]int8{1, 1, 1}}
	hops := walkEndToEnd(t, cfg, src, dst, c)

	// Intermediate nodes are Y=2 and Y=1; each contributes exactly two
	// intra channels (adapter->router, router->adapter), both T-group,
	// both touching only R0,2.
	for _, yi := range []int{2, 1} {
		node := m.Shape.NodeID(topo.NodeCoord{Y: yi})
		var intra []topo.IntraChan
		for _, h := range hops {
			if !m.IsTorusChan(h.Chan) {
				if n, ch := m.IntraChanOf(h.Chan); n == node {
					intra = append(intra, *ch)
				}
			}
		}
		if len(intra) != 2 {
			t.Fatalf("intermediate node y=%d has %d intra hops, want 2 (single-router through path): %v", yi, len(intra), intra)
		}
		for _, ch := range intra {
			if ch.Group != topo.GroupT {
				t.Errorf("through-route channel %s must be T-group", ch.Name)
			}
			want := topo.MeshCoord{U: 0, V: 2} // Y slice 0 router
			if ch.From.Kind == topo.LocRouter && ch.From.Router != want {
				t.Errorf("through route touched router %v, want %v", ch.From.Router, want)
			}
		}
	}
}

// TestXThroughUsesSkipChannel reproduces the paper's example: X1- -> R3,0 ->
// skip channel -> R0,0 -> X1+.
func TestXThroughUsesSkipChannel(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(8, 2, 2), AntonScheme{})
	m := cfg.Machine
	src := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 0}), Ep: 0}
	dst := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 3}), Ep: 0}
	c := Choices{Order: topo.DimOrder{topo.DimX, topo.DimY, topo.DimZ}, Slice: 1, Ties: [3]int8{1, 1, 1}}
	hops := walkEndToEnd(t, cfg, src, dst, c)

	// Intermediate nodes x=1 and x=2 must each use a skip channel.
	for _, xi := range []int{1, 2} {
		node := m.Shape.NodeID(topo.NodeCoord{X: xi})
		foundSkip := false
		count := 0
		for _, h := range hops {
			if m.IsTorusChan(h.Chan) {
				continue
			}
			if n, ch := m.IntraChanOf(h.Chan); n == node {
				count++
				if ch.From.Kind == topo.LocRouter && ch.To.Kind == topo.LocRouter {
					foundSkip = true
					if ch.Group != topo.GroupT {
						t.Errorf("skip channel %s must be T-group", ch.Name)
					}
					if ch.From.Router != (topo.MeshCoord{U: 3, V: 0}) || ch.To.Router != (topo.MeshCoord{U: 0, V: 0}) {
						t.Errorf("X+ slice-1 through route used %s, want skip R3,0->R0,0", ch.Name)
					}
				}
			}
		}
		if !foundSkip {
			t.Errorf("X through-traffic at node x=%d did not use the skip channel", xi)
		}
		if count != 3 {
			t.Errorf("X through node x=%d has %d intra hops, want 3 (in-adapter->router, skip, router->out-adapter)", xi, count)
		}
	}
}

func TestDatelineIncrementsVC(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(8, 2, 2), AntonScheme{})
	m := cfg.Machine
	// x=6 -> x=1 in +X wraps through the 7->0 dateline.
	src := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 6}), Ep: 0}
	dst := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 1}), Ep: 0}
	c := Choices{Order: topo.DimOrder{topo.DimX, topo.DimY, topo.DimZ}, Slice: 0, Ties: [3]int8{1, 1, 1}}
	hops := walkEndToEnd(t, cfg, src, dst, c)

	var torusVCs []uint8
	for _, h := range hops {
		if m.IsTorusChan(h.Chan) {
			torusVCs = append(torusVCs, h.VC)
		}
	}
	want := []uint8{0, 1, 1} // 6->7 on VC0, 7->0 crosses (VC1), 0->1 on VC1
	if len(torusVCs) != len(want) {
		t.Fatalf("torus VC trail %v, want %v", torusVCs, want)
	}
	for i := range want {
		if torusVCs[i] != want[i] {
			t.Fatalf("torus VC trail %v, want %v", torusVCs, want)
		}
	}
	// Final mesh leg must be on M-VC 1 (crossed once).
	last := hops[len(hops)-1]
	if m.ChanGroup(last.Chan) != topo.GroupM || last.VC != 1 {
		t.Errorf("final hop VC = %d on %s, want M-group VC 1", last.VC, m.ChanName(last.Chan))
	}
}

func TestRouteBeginsAndEndsInMGroup(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(4, 4, 4), AntonScheme{})
	m := cfg.Machine
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		src := topo.NodeEp{Node: rng.Intn(m.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
		dst := topo.NodeEp{Node: rng.Intn(m.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
		hops := walkEndToEnd(t, cfg, src, dst, RandomChoices(rng))
		if m.ChanGroup(hops[0].Chan) != topo.GroupM {
			t.Fatalf("route must begin in the M-group (endpoint->router)")
		}
		if m.ChanGroup(hops[len(hops)-1].Chan) != topo.GroupM {
			t.Fatalf("route must end in the M-group (router->endpoint)")
		}
		// Group alternation bound (Section 2.5): at most 4 M-legs and 3
		// T-legs.
		mLegs, tLegs := 0, 0
		prev := topo.Group(255)
		for _, h := range hops {
			g := m.ChanGroup(h.Chan)
			if g != prev {
				if g == topo.GroupM {
					mLegs++
				} else {
					tLegs++
				}
				prev = g
			}
		}
		if mLegs > 4 || tLegs > 3 {
			t.Fatalf("route %v->%v has %d M-legs and %d T-legs, want <=4 and <=3", src, dst, mLegs, tLegs)
		}
	}
}

// Property: VCs never decrease along a route (promotion is monotone), for
// the Anton scheme.
func TestVCMonotoneProperty(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(6, 5, 4), AntonScheme{})
	m := cfg.Machine
	f := func(a, b uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := topo.NodeEp{Node: int(a) % m.NumNodes(), Ep: rng.Intn(topo.NumEndpoints)}
		dst := topo.NodeEp{Node: int(b) % m.NumNodes(), Ep: rng.Intn(topo.NumEndpoints)}
		hops := Walk(cfg, src, dst, topo.AllDimOrders[rng.Intn(6)], uint8(rng.Intn(2)), [3]int8{1, -1, 1}, ClassReply)
		prev := uint8(0)
		for _, h := range hops {
			if h.VC < prev {
				return false
			}
			prev = h.VC
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceConfinement(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(4, 4, 4), AntonScheme{})
	m := cfg.Machine
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		src := topo.NodeEp{Node: rng.Intn(m.NumNodes()), Ep: 0}
		dst := topo.NodeEp{Node: rng.Intn(m.NumNodes()), Ep: 5}
		c := RandomChoices(rng)
		hops := Walk(cfg, src, dst, c.Order, c.Slice, c.Ties, ClassRequest)
		for _, h := range hops {
			if m.IsTorusChan(h.Chan) {
				_, ad := m.TorusChanOf(h.Chan)
				if ad.Slice != int(c.Slice) {
					t.Fatalf("packet assigned slice %d used torus channel %v", c.Slice, ad)
				}
			}
		}
	}
}

func TestEnumerateChoicesWeightsSumToOne(t *testing.T) {
	shape := topo.Shape3(4, 4, 4)
	for ai := 0; ai < shape.NumNodes(); ai += 7 {
		for bi := 0; bi < shape.NumNodes(); bi += 5 {
			wcs := enumerateChoices(shape, shape.Coord(ai), shape.Coord(bi))
			sum := 0.0
			for _, wc := range wcs {
				sum += wc.Weight
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Fatalf("weights for %d->%d sum to %g", ai, bi, sum)
			}
		}
	}
}

func TestDimOrderRespected(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(4, 4, 4), AntonScheme{})
	m := cfg.Machine
	src := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 0, Y: 0, Z: 0}), Ep: 0}
	dst := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 1, Y: 1, Z: 1}), Ep: 0}
	for _, ord := range topo.AllDimOrders {
		hops := Walk(cfg, src, dst, ord, 0, [3]int8{1, 1, 1}, ClassRequest)
		var dims []topo.Dim
		for _, h := range hops {
			if m.IsTorusChan(h.Chan) {
				_, ad := m.TorusChanOf(h.Chan)
				dims = append(dims, ad.Dir.Dim())
			}
		}
		if len(dims) != 3 {
			t.Fatalf("order %v: %d torus hops, want 3", ord, len(dims))
		}
		for i, d := range dims {
			if d != ord[i] {
				t.Fatalf("order %v: torus dims %v do not follow the order", ord, dims)
			}
		}
	}
}

// TestEntrySkipVariantRoutes: the (non-default) entry-skip policy produces
// valid, delivered routes; it is rejected only by the deadlock analysis
// when combined with exit skips.
func TestEntrySkipVariantRoutes(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(8, 4, 2), AntonScheme{})
	cfg.EntrySkip = true
	cfg.ExitSkip = false
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		src := topo.NodeEp{Node: rng.Intn(cfg.Machine.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
		dst := topo.NodeEp{Node: rng.Intn(cfg.Machine.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
		walkEndToEnd(t, cfg, src, dst, RandomChoices(rng))
	}
}

// TestNoSkipVariantRoutes: with the exit and entry skip crossings both off,
// every registered strategy's routes stay minimal, within every VC budget,
// and deliver. X through-traffic still crosses the skip (see
// TestExitSkipOffKeepsThroughSkip), so RouterNext's transit branch must
// reach the egress router or the skip to it under each strategy.
func TestNoSkipVariantRoutes(t *testing.T) {
	for _, strat := range Strategies() {
		cfg := cfgFor(t, topo.Shape3(8, 2, 2), strat)
		cfg.EntrySkip, cfg.ExitSkip = false, false
		rng := rand.New(rand.NewSource(18))
		for range 300 {
			src := topo.NodeEp{Node: rng.Intn(cfg.Machine.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
			dst := topo.NodeEp{Node: rng.Intn(cfg.Machine.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
			walkEndToEnd(t, cfg, src, dst, strat.Choose(cfg, src, dst, RandomChoices(rng), ClassRequest))
		}
	}
}

// TestExitSkipOffKeepsThroughSkip pins what ExitSkip = false does: it turns
// the exit crossing off, and X through-traffic still crosses the skip at
// every node it passes. Every route then crosses exactly one skip per node
// it transits in X; under the default skips some cross one more. Either way
// routes stay minimal, within every VC budget, and deliver.
func TestExitSkipOffKeepsThroughSkip(t *testing.T) {
	for _, exitSkip := range []bool{false, true} {
		cfg := cfgFor(t, topo.Shape3(8, 2, 2), AntonScheme{})
		cfg.ExitSkip = exitSkip
		m := cfg.Machine
		skip := map[int]bool{}
		for _, r := range m.Chip.Routers {
			if sp := r.SkipPort(); sp >= 0 {
				skip[r.Ports[sp].OutChan] = true
			}
		}
		extra := 0
		rng := rand.New(rand.NewSource(19))
		for range 300 {
			src := topo.NodeEp{Node: rng.Intn(m.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
			dst := topo.NodeEp{Node: rng.Intn(m.NumNodes()), Ep: rng.Intn(topo.NumEndpoints)}
			c := RandomChoices(rng)
			crossed := 0
			for _, h := range walkEndToEnd(t, cfg, src, dst, c) {
				if !m.IsTorusChan(h.Chan) && skip[h.Chan%m.NumIntraChans()] {
					crossed++
				}
			}
			dx, _ := m.Shape.MinimalDelta(m.Shape.Coord(src.Node), m.Shape.Coord(dst.Node), topo.DimX)
			transits := max(dx*sgn(dx)-1, 0)
			if crossed < transits || !exitSkip && crossed != transits {
				t.Fatalf("ExitSkip %v %v->%v %+v: %d skip crossings, %d X transits", exitSkip, src, dst, c, crossed, transits)
			}
			extra += crossed - transits
		}
		if exitSkip != (extra > 0) {
			t.Errorf("ExitSkip %v: %d skip crossings beyond the X transits", exitSkip, extra)
		}
	}
}

func TestMulticastStateHelpers(t *testing.T) {
	cfg := cfgFor(t, topo.Shape3(4, 4, 4), AntonScheme{})
	chip := cfg.Machine.Chip
	order := topo.AllDimOrders[0]
	srcRouter := chip.Endpoints[0].Router

	st := InitMulticastBranch(cfg, topo.XPos, 0, order, 1, ClassRequest, srcRouter)
	if st.Mode != ModeMeshToAdapter || st.Dir != topo.XPos || st.Slice != 1 {
		t.Fatalf("branch init state: %+v", st)
	}

	// Continue keeps the transit mode.
	st2 := st
	st2.Mode = ModeTransit
	MulticastContinue(&st2)
	if st2.Mode != ModeTransit {
		t.Error("continue must stay in transit")
	}

	// Turn promotes the VC like a unicast dimension exit.
	st3 := st
	st3.TVC, st3.Traveled = 0, true
	ingress := chip.AdapterAt(topo.AdapterID{Dir: topo.XNeg, Slice: 1}).Router
	MulticastTurn(cfg, &st3, topo.YPos, 1, ingress)
	if st3.MVC != 1 || st3.Dir != topo.YPos || st3.Mode != ModeMeshToAdapter {
		t.Errorf("turn state: %+v", st3)
	}

	// Deliver promotes and heads to the endpoint.
	st4 := st
	st4.TVC, st4.Traveled = 0, true
	MulticastDeliver(cfg, &st4, topo.NodeEp{Node: 0, Ep: 4}, ingress)
	if st4.Mode != ModeMeshToEndpoint || st4.MVC != 1 {
		t.Errorf("deliver state: %+v", st4)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeMeshToAdapter.String() == "" || ModeTransit.String() == "" || ModeMeshToEndpoint.String() == "" {
		t.Error("mode strings empty")
	}
}
