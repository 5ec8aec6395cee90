package traffic

import (
	"math"
	"math/rand"
	"testing"

	"anton2/internal/topo"
)

func machineFor(t testing.TB, shape topo.TorusShape) *topo.Machine {
	t.Helper()
	m, err := topo.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkFlowsSumToOne(t *testing.T, m *topo.Machine, p Pattern) {
	t.Helper()
	flows := p.Flows(m)
	for _, srcEp := range m.Chip.CoreEndpoints() {
		sum := 0.0
		for _, f := range flows(srcEp) {
			sum += f.Frac
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: flows from E%d sum to %g", p.Name(), srcEp, sum)
		}
	}
}

func TestAllPatternsFlowsSumToOne(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 4))
	for _, p := range []Pattern{
		Uniform{}, NHop{N: 1}, NHop{N: 2}, Tornado(), ReverseTornado(),
		BitComplement(), nearestNeighbor{},
	} {
		checkFlowsSumToOne(t, m, p)
	}
}

func TestUniformNeverSelf(t *testing.T) {
	m := machineFor(t, topo.Shape3(2, 2, 2))
	rng := rand.New(rand.NewSource(1))
	src := topo.NodeEp{Node: 5, Ep: 0}
	for i := 0; i < 1000; i++ {
		d := (Uniform{}).Dest(m, src, rng)
		if d.Node == src.Node {
			t.Fatal("uniform traffic sent to the source node")
		}
	}
}

func TestUniformCoversAllNodes(t *testing.T) {
	m := machineFor(t, topo.Shape3(2, 2, 2))
	rng := rand.New(rand.NewSource(2))
	src := topo.NodeEp{Node: 0, Ep: 0}
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[(Uniform{}).Dest(m, src, rng).Node] = true
	}
	if len(seen) != m.NumNodes()-1 {
		t.Errorf("uniform reached %d nodes, want %d", len(seen), m.NumNodes()-1)
	}
}

func TestNHopNeighborhoodSize(t *testing.T) {
	m := machineFor(t, topo.Shape3(8, 8, 8))
	if n := len((NHop{N: 1}).neighborhood(m, topo.NodeCoord{})); n != 26 {
		t.Errorf("1-hop neighborhood = %d nodes, want 3^3-1 = 26", n)
	}
	if n := len((NHop{N: 2}).neighborhood(m, topo.NodeCoord{})); n != 124 {
		t.Errorf("2-hop neighborhood = %d nodes, want 5^3-1 = 124", n)
	}
	// Wrapping dedup: on a k=4 torus, offsets -2 and +2 alias.
	m4 := machineFor(t, topo.Shape3(4, 4, 4))
	if n := len((NHop{N: 2}).neighborhood(m4, topo.NodeCoord{})); n != 63 {
		t.Errorf("2-hop neighborhood on 4^3 = %d nodes, want full torus minus self = 63", n)
	}
}

func TestNHopDestWithinRange(t *testing.T) {
	m := machineFor(t, topo.Shape3(8, 8, 8))
	rng := rand.New(rand.NewSource(3))
	src := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 4, Y: 4, Z: 4}), Ep: 0}
	p := NHop{N: 2}
	for i := 0; i < 500; i++ {
		d := p.Dest(m, src, rng)
		dc := m.Shape.Coord(d.Node)
		sc := m.Shape.Coord(src.Node)
		for dim := topo.Dim(0); dim < topo.NumDims; dim++ {
			delta, _ := m.Shape.MinimalDelta(sc, dc, dim)
			if delta < -2 || delta > 2 {
				t.Fatalf("2-hop destination %v is %d hops away in %v", dc, delta, dim)
			}
		}
		if d.Node == src.Node {
			t.Fatal("n-hop sent to self node")
		}
	}
}

func TestTornadoFormula(t *testing.T) {
	m := machineFor(t, topo.Shape3(8, 8, 8))
	src := topo.NodeEp{Node: m.Shape.NodeID(topo.NodeCoord{X: 1, Y: 2, Z: 3}), Ep: 7}
	d := Tornado().Dest(m, src, nil)
	want := topo.NodeCoord{X: 1 + 3, Y: 2 + 3, Z: 3 + 3} // +k/2-1
	if m.Shape.Coord(d.Node) != want {
		t.Errorf("tornado dst = %v, want %v", m.Shape.Coord(d.Node), want)
	}
	if d.Ep != src.Ep {
		t.Errorf("tornado must target the same core index")
	}
	r := ReverseTornado().Dest(m, src, nil)
	wantR := topo.NodeCoord{X: 1 - 3 + 8, Y: 2 - 3 + 8, Z: 3 - 3 + 8}
	if m.Shape.Coord(r.Node) != m.Shape.Wrap(wantR) {
		t.Errorf("reverse tornado dst = %v, want %v", m.Shape.Coord(r.Node), m.Shape.Wrap(wantR))
	}
}

func TestTornadoReverseAreOpposite(t *testing.T) {
	m := machineFor(t, topo.Shape3(8, 4, 6))
	for node := 0; node < m.NumNodes(); node += 5 {
		src := topo.NodeEp{Node: node, Ep: 0}
		f := Tornado().Dest(m, src, nil)
		back := ReverseTornado().Dest(m, topo.NodeEp{Node: f.Node, Ep: 0}, nil)
		if back.Node != src.Node {
			t.Fatalf("reverse(tornado(%d)) = %d", src.Node, back.Node)
		}
	}
}

func TestBitComplementInvolution(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 6, 8))
	p := BitComplement()
	for node := 0; node < m.NumNodes(); node++ {
		src := topo.NodeEp{Node: node, Ep: 3}
		d := p.Dest(m, src, nil)
		dd := p.Dest(m, topo.NodeEp{Node: d.Node, Ep: 3}, nil)
		if dd.Node != node {
			t.Fatalf("bit-complement is not an involution at node %d", node)
		}
	}
}

func TestNearestNeighborDistanceOne(t *testing.T) {
	m := machineFor(t, topo.Shape3(4, 4, 4))
	rng := rand.New(rand.NewSource(4))
	src := topo.NodeEp{Node: 21, Ep: 2}
	for i := 0; i < 200; i++ {
		d := (nearestNeighbor{}).Dest(m, src, rng)
		if h := m.Shape.HopDistance(m.Shape.Coord(src.Node), m.Shape.Coord(d.Node)); h != 1 {
			t.Fatalf("nearest-neighbor destination %d hops away", h)
		}
	}
}

func TestPatternNames(t *testing.T) {
	cases := map[string]Pattern{
		"uniform":         Uniform{},
		"2-hop":           NHop{N: 2},
		"tornado":         Tornado(),
		"reverse-tornado": ReverseTornado(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}
